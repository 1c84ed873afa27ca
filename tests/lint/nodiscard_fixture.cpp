// Compile fixture for the Status/Result discard contract
// (src/mathx/status.hpp). Both types are `class [[nodiscard]]`, so
// dropping one returned by value must be a compile error under
// -Werror=unused-result — no per-declaration attribute and no source lint
// is needed. tests/lint/CMakeLists.txt compiles this TU with
// -fsyntax-only once per planted case (-DCHRONOS_PLANT_<case>) and passes
// only if the compiler reports an error naming `nodiscard`; the control
// compile (no plant) keeps every (void) cast and must succeed.
//
//   CHRONOS_PLANT_status          a discarded free-function Status
//   CHRONOS_PLANT_result          a discarded free-function Result<double>
//   CHRONOS_PLANT_virtual_result  a discarded Result<int> returned through
//                                 a virtual call

#include "mathx/status.hpp"

namespace chronos::lint_fixture {

// Declarations only: the fixture is never linked.
Status make_status();
Result<double> make_result();

class Source {
 public:
  virtual ~Source() = default;
  virtual Result<int> fetch() const = 0;
};

void discard_everything(const Source& source) {
#ifdef CHRONOS_PLANT_status
  make_status();
#else
  (void)make_status();
#endif
#ifdef CHRONOS_PLANT_result
  make_result();
#else
  (void)make_result();
#endif
#ifdef CHRONOS_PLANT_virtual_result
  source.fetch();
#else
  (void)source.fetch();
#endif
}

}  // namespace chronos::lint_fixture
