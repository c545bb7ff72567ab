// GoogleTest printers for the library's enum and layout types that
// parameterised suites sweep.  GoogleTest names a parameterised case by
// printing its parameter, and without a printer it prints the raw object
// bytes — for a struct, padding included, whose indeterminate bytes made
// the discovered ctest names change from build to build.  Each test file's
// own parameter structs get a PrintTo next to their definition, built on
// these.  scripts/check.sh fails if any discovered name prints raw bytes.
#pragma once

#include <ostream>

#include "comm/shift.hpp"
#include "embed/dist_vector.hpp"
#include "embed/matrix_embedding.hpp"
#include "net/topology.hpp"

namespace vmp {

inline void PrintTo(Part p, std::ostream* os) {
  *os << (p == Part::Block ? "Block" : "Cyclic");
}

inline void PrintTo(Align a, std::ostream* os) { *os << to_string(a); }

inline void PrintTo(const MatrixLayout& l, std::ostream* os) {
  PrintTo(l.rows, os);
  *os << '-';
  PrintTo(l.cols, os);
}

inline void PrintTo(TopologyKind k, std::ostream* os) { *os << to_string(k); }

inline void PrintTo(RingOrder o, std::ostream* os) {
  *os << (o == RingOrder::Gray ? "Gray" : "Binary");
}

}  // namespace vmp
