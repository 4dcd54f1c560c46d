// Generated by tools/plp_golden_gen — DO NOT EDIT BY HAND.
// Pinned observable behavior of the training stack (model CRC-64,
// epsilon trajectories, stop reasons) used by the golden
// equivalence suite. Regenerate with:
//   plp_golden_gen --out_dir=tests/golden > tests/golden/golden_pins.h
#ifndef PLP_TESTS_GOLDEN_GOLDEN_PINS_H_
#define PLP_TESTS_GOLDEN_GOLDEN_PINS_H_

#include <cstdint>
#include <vector>

namespace plp::golden {

// Numerics version of the stack these pins were generated under
// (golden_variants.h kGoldenNumericsVersion at generation time).
// The golden suite refuses to run against stale pins.
inline constexpr int kPinnedNumericsVersion = 3;

struct PrivatePin {
  const char* name;
  uint64_t model_crc64;        // identical at every thread count
  int64_t steps_executed;
  int stop_reason;             // static_cast<int>(StopReason)
  std::vector<double> epsilon; // ε after each executed step
};

inline const std::vector<PrivatePin>& PrivatePins() {
  static const std::vector<PrivatePin> pins = {
      {"default", 0x033c1ecab22831b2ULL, 12, 1,
       {0x1.229d083b21621p+1, 0x1.66672f797dfb8p+1, 0x1.91545ad80f6d8p+1, 
        0x1.bc418636a0df9p+1, 0x1.e72eb1953251ap+1, 0x1.00292710670b2p+2, 
        0x1.0c9223b718c34p+2, 0x1.18fb205dca7b7p+2, 0x1.25641d047c339p+2, 
        0x1.31cd19ab2debbp+2, 0x1.3e361651dfa3ep+2, 0x1.4a9f12f8915cp+2}},
      {"split2", 0x166d0d8f1392c486ULL, 12, 1,
       {0x1.229d083b21621p+1, 0x1.66672f797dfb8p+1, 0x1.91545ad80f6d8p+1, 
        0x1.bc418636a0df9p+1, 0x1.e72eb1953251ap+1, 0x1.00292710670b2p+2, 
        0x1.0c9223b718c34p+2, 0x1.18fb205dca7b7p+2, 0x1.25641d047c339p+2, 
        0x1.31cd19ab2debbp+2, 0x1.3e361651dfa3ep+2, 0x1.4a9f12f8915cp+2}},
      {"dpsgd", 0xbdd666a919844083ULL, 12, 1,
       {0x1.229d083b21621p+1, 0x1.66672f797dfb8p+1, 0x1.91545ad80f6d8p+1, 
        0x1.bc418636a0df9p+1, 0x1.e72eb1953251ap+1, 0x1.00292710670b2p+2, 
        0x1.0c9223b718c34p+2, 0x1.18fb205dca7b7p+2, 0x1.25641d047c339p+2, 
        0x1.31cd19ab2debbp+2, 0x1.3e361651dfa3ep+2, 0x1.4a9f12f8915cp+2}},
      {"schedule", 0x0ad070090fe49982ULL, 12, 1,
       {0x1.09a2878319f4ep+0, 0x1.56f3297365a3ap+0, 0x1.9deb7f21f068p+0, 
        0x1.e6d6c44f309c6p+0, 0x1.1a860cbbc90c9p+1, 0x1.4750f3f43ff0ep+1, 
        0x1.805ff61b21cd2p+1, 0x1.edc74afe6f8c2p+1, 0x1.1423c7e6f7a4p+2, 
        0x1.30c84a35a6b9p+2, 0x1.4d6ccc8455ce2p+2, 0x1.6a114ed304e32p+2}},
      {"fixed_step", 0x552689230bf5f3d6ULL, 12, 1,
       {0x1.229d083b21621p+1, 0x1.66672f797dfb8p+1, 0x1.91545ad80f6d8p+1, 
        0x1.bc418636a0df9p+1, 0x1.e72eb1953251ap+1, 0x1.00292710670b2p+2, 
        0x1.0c9223b718c34p+2, 0x1.18fb205dca7b7p+2, 0x1.25641d047c339p+2, 
        0x1.31cd19ab2debbp+2, 0x1.3e361651dfa3ep+2, 0x1.4a9f12f8915cp+2}},
      {"per_tensor", 0x6ea2cbe5c45171bbULL, 12, 1,
       {0x1.4a9b4756a87aap+2, 0x1.a457f309f229cp+2, 0x1.ee3d8030bdb2ep+2, 
        0x1.1c1186abc49ep+3, 0x1.41044d3f2a62ap+3, 0x1.567cff51f98e2p+3, 
        0x1.622505c03ea1ep+3, 0x1.6dcd0c2e83b5bp+3, 0x1.7975129cc8c97p+3, 
        0x1.851d190b0ddd4p+3, 0x1.90c51f7952f1p+3, 0x1.9c6d25e79804cp+3}},
      {"realized_denom", 0xa6c7eb3fb8206716ULL, 12, 1,
       {0x1.229d083b21621p+1, 0x1.66672f797dfb8p+1, 0x1.91545ad80f6d8p+1, 
        0x1.bc418636a0df9p+1, 0x1.e72eb1953251ap+1, 0x1.00292710670b2p+2, 
        0x1.0c9223b718c34p+2, 0x1.18fb205dca7b7p+2, 0x1.25641d047c339p+2, 
        0x1.31cd19ab2debbp+2, 0x1.3e361651dfa3ep+2, 0x1.4a9f12f8915cp+2}},
      {"budget", 0x13b7c0271f0effc2ULL, 5, 0,
       {0x1.229d083b21621p+1, 0x1.66672f797dfb8p+1, 0x1.91545ad80f6d8p+1, 
        0x1.bc418636a0df9p+1, 0x1.e72eb1953251ap+1}},
      {"unigram", 0xc410a035f3babeb6ULL, 12, 1,
       {0x1.229d083b21621p+1, 0x1.66672f797dfb8p+1, 0x1.91545ad80f6d8p+1, 
        0x1.bc418636a0df9p+1, 0x1.e72eb1953251ap+1, 0x1.00292710670b2p+2, 
        0x1.0c9223b718c34p+2, 0x1.18fb205dca7b7p+2, 0x1.25641d047c339p+2, 
        0x1.31cd19ab2debbp+2, 0x1.3e361651dfa3ep+2, 0x1.4a9f12f8915cp+2}},
      {"pld_fft", 0x033c1ecab22831b2ULL, 12, 1,
       {0x1.639209071171fp+0, 0x1.c070517f9726dp+0, 0x1.04cc34fe09ae5p+1, 
        0x1.243a06014c5b5p+1, 0x1.405ad8cd6c16dp+1, 0x1.5a238fba1a51fp+1, 
        0x1.722601421d186p+1, 0x1.88c10a38c5932p+1, 0x1.9e36a1a5d1f26p+1, 
        0x1.b2b688abecce8p+1, 0x1.c664e35514951p+1, 0x1.d95da6942c64p+1}},
  };
  return pins;
}

struct NonPrivatePin {
  const char* name;
  uint64_t model_crc64;
  std::vector<double> mean_loss;  // per epoch
};

inline const std::vector<NonPrivatePin>& NonPrivatePins() {
  static const std::vector<NonPrivatePin> pins = {
      {"np_default", 0x9cdd4238e539df87ULL,
       {0x1.9c935233d1725p-1, 0x1.59d367fb3e8ebp-1, 0x1.544cb43b7403p-1, 
        0x1.5952eaa025f3dp-1, 0x1.4a3f88a32ea2p-1, 0x1.6079eb1e503ecp-1, 
        0x1.4ccae28d5af74p-1, 0x1.4dcb35b1ac83p-1}},
      {"np_subsample", 0xe1e8aa12db2561f0ULL,
       {0x1.9d3fe1bd0b5c1p-1, 0x1.6741d5d22a1a1p-1, 0x1.53385991ff05ap-1, 
        0x1.5993ce4affce2p-1, 0x1.5a3ed1aefbf67p-1, 0x1.4f8a3892fbf85p-1}},
  };
  return pins;
}

}  // namespace plp::golden

#endif  // PLP_TESTS_GOLDEN_GOLDEN_PINS_H_
