// libFuzzer entry point for the envelope header codec (net/msg.h).

#include "fuzz/fuzz_targets.h"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  return dprbg::fuzz::envelope_header_one(data, size);
}
