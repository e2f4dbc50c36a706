// lint-as: src/nn/kernels.cc
// Positive corpus for no-raw-getenv: environment knobs in src/ outside
// util/env_config.cc. The kernel layer once read a dispatch pin and a
// probe switch this way; reads shaped like them must not come back
// without a finding.
#include <cstdlib>
#include <cstring>

extern char** environ;  // expect-lint: no-raw-getenv

int InitialPath() {
  const char* env = std::getenv("QCFE_KERNEL_PATH");  // expect-lint: no-raw-getenv
  return env != nullptr && std::strcmp(env, "reference") == 0;
}

bool ProbeEnabled() {
  const char* env = getenv("QCFE_KERNEL_PROBE");  // expect-lint: no-raw-getenv
  return env == nullptr || std::strcmp(env, "0") != 0;
}

const char* Home() { return secure_getenv("HOME"); }  // expect-lint: no-raw-getenv

// The one sanctioned read carries its reason and an allow on the line
// above: read once at static init, before any config exists.
// qcfe-lint: allow(no-raw-getenv)
const char* isa_pin = std::getenv("QCFE_KERNEL_ISA");

// Comments and strings that mention getenv("X") must not trip the rule.
const char* kDoc = "set QCFE_THREADS; never call getenv(name) here";
int my_getenv_count(int x) { return x; }
