// lint-as: src/util/env_config.cc
// Negative corpus: util/env_config.cc owns the process's environment
// knobs, so nothing here may be flagged.
#include <cstdlib>

const char* Scale() { return std::getenv("QCFE_SCALE"); }
const char* Threads() { return std::getenv("QCFE_THREADS"); }
