// Seeded scenario generation and request-frame rendering.
//
// The benchmark renders every request frame itself.  A frame is
// `{"id":<n>,` followed by a body; bodies are rendered once, ids are
// spliced in per request, so one key can be sent many times at the cost of
// a string append.

#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/model.hpp"

namespace perfbench {

/// A rendered request body plus the model it describes.
struct Job {
  std::string body;  ///< frame text after `{"id":<n>,`
  xbar::core::CrossbarModel model;
};

/// A class mix drawn from `seed`: a Poisson voice class, a Pascal
/// (peakedness > 1) bursty class and, with `wide`, a smooth class of
/// bandwidth 2.
[[nodiscard]] xbar::core::CrossbarModel random_mix(unsigned n,
                                                   std::uint64_t seed,
                                                   bool wide = true);

/// Render a `solve` or `revenue` request body for `model` with `solver`.
[[nodiscard]] std::string render_body(const char* method,
                                      const xbar::core::CrossbarModel& model,
                                      const char* solver);

/// Full request line: `{"id":<id>,` + body.
void render_frame(std::string& out, std::uint64_t id,
                  const std::string& body);

/// The fleet_hot key set: `keys` distinct cacheable requests, alternating
/// solve and revenue, on switches of 16..64 ports.
[[nodiscard]] std::vector<Job> fleet_keys(std::size_t keys,
                                          std::uint64_t seed);

/// cold_direct request `index` of stream `stream`: a unique n=128
/// Poisson + Pascal mix,
/// solved with Algorithm 1 on its default (ScaledFloat) grid.
[[nodiscard]] Job cold_job(std::uint64_t seed, std::uint64_t stream,
                           std::uint64_t index);

}  // namespace perfbench
