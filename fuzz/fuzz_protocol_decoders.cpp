// libFuzzer entry point dispatching over every length-validated protocol
// decoder (Grade-Cast echoes, Coin-Gen clique messages, Bit-Gen
// combination batches, field-element rows, and the defensive ByteReader).

#include "fuzz/fuzz_targets.h"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  return dprbg::fuzz::protocol_decoders_one(data, size);
}
