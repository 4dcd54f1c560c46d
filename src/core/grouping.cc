#include "core/grouping.h"

#include <algorithm>
#include <span>
#include <unordered_map>
#include <unordered_set>

#include "common/check.h"

namespace plp::core {

int64_t Bucket::num_tokens() const {
  int64_t total = 0;
  for (const auto& s : sentences) total += static_cast<int64_t>(s.size());
  return total;
}

std::vector<int32_t> PoissonSampleUsers(int32_t num_users, double q,
                                        Rng& rng) {
  PLP_CHECK(q >= 0.0 && q <= 1.0);
  std::vector<int32_t> sample;
  for (int32_t u = 0; u < num_users; ++u) {
    if (rng.Bernoulli(q)) sample.push_back(u);
  }
  return sample;
}

namespace {

/// Flattens one user's sentences into a single token stream (used by the
/// ω-split path, which cuts the stream into contiguous parts).
std::vector<int32_t> FlattenUser(const data::CorpusView& corpus,
                                 int32_t user) {
  std::vector<int32_t> tokens;
  std::vector<std::span<const int32_t>> sentences;
  corpus.AppendUserSentences(user, sentences);
  for (const auto& s : sentences) {
    tokens.insert(tokens.end(), s.begin(), s.end());
  }
  return tokens;
}

/// Copies one user's sentences into a bucket. Buckets own their tokens:
/// the per-step copy is bounded by the Poisson sample (qN users), never
/// the corpus, and keeps Bucket bytes — and therefore content-keyed
/// bucket seeds — identical across corpus representations.
void AppendUserToBucket(const data::CorpusView& corpus, int32_t user,
                        Bucket& bucket) {
  std::vector<std::span<const int32_t>> sentences;
  corpus.AppendUserSentences(user, sentences);
  for (const auto& s : sentences) {
    bucket.sentences.emplace_back(s.begin(), s.end());
  }
}

std::vector<Bucket> BuildRandomBuckets(
    const data::CorpusView& corpus,
    std::vector<int32_t> sampled_users, int32_t lambda, Rng& rng) {
  rng.Shuffle(sampled_users);
  std::vector<Bucket> buckets;
  for (size_t start = 0; start < sampled_users.size();
       start += static_cast<size_t>(lambda)) {
    const size_t end = std::min(sampled_users.size(),
                                start + static_cast<size_t>(lambda));
    Bucket bucket;
    for (size_t i = start; i < end; ++i) {
      const int32_t u = sampled_users[i];
      bucket.users.push_back(u);
      AppendUserToBucket(corpus, u, bucket);
    }
    buckets.push_back(std::move(bucket));
  }
  return buckets;
}

std::vector<Bucket> BuildSplitBuckets(const data::CorpusView& corpus,
                                      const std::vector<int32_t>& sampled,
                                      const PlpConfig& config, Rng& rng) {
  // ω > 1: cut each user's flattened stream into ω contiguous parts and
  // place the parts in ω distinct buckets. Bucket count is chosen so each
  // holds about λ parts; a round-robin with a random per-user offset keeps
  // a user's parts apart.
  const int64_t total_parts = static_cast<int64_t>(sampled.size()) *
                              config.split_factor;
  const int64_t num_buckets = std::max<int64_t>(
      config.split_factor,
      (total_parts + config.grouping_factor - 1) / config.grouping_factor);
  std::vector<Bucket> buckets(static_cast<size_t>(num_buckets));
  for (int32_t u : sampled) {
    const std::vector<int32_t> tokens = FlattenUser(corpus, u);
    const int64_t start = static_cast<int64_t>(
        rng.UniformInt(static_cast<uint64_t>(num_buckets)));
    const size_t part_len =
        (tokens.size() + config.split_factor - 1) /
        static_cast<size_t>(config.split_factor);
    for (int32_t p = 0; p < config.split_factor; ++p) {
      const size_t lo = static_cast<size_t>(p) * part_len;
      if (lo >= tokens.size()) break;
      const size_t hi = std::min(tokens.size(), lo + part_len);
      Bucket& bucket =
          buckets[static_cast<size_t>((start + p) % num_buckets)];
      if (bucket.users.empty() || bucket.users.back() != u) {
        bucket.users.push_back(u);
      }
      bucket.sentences.emplace_back(tokens.begin() + static_cast<int64_t>(lo),
                                    tokens.begin() + static_cast<int64_t>(hi));
    }
  }
  // Drop empty buckets.
  std::vector<Bucket> out;
  for (auto& b : buckets) {
    if (!b.sentences.empty()) out.push_back(std::move(b));
  }
  return out;
}

}  // namespace

std::vector<Bucket> BuildBuckets(const data::CorpusView& corpus,
                                 const std::vector<int32_t>& sampled_users,
                                 const PlpConfig& config, Rng& rng) {
  for (int32_t u : sampled_users) {
    PLP_CHECK(u >= 0 && u < corpus.NumUsers());
  }
  if (sampled_users.empty()) return {};
  if (config.split_factor > 1) {
    return BuildSplitBuckets(corpus, sampled_users, config, rng);
  }
  return BuildRandomBuckets(corpus, sampled_users, config.grouping_factor,
                            rng);
}

int32_t RealizedSplitFactor(const std::vector<Bucket>& buckets) {
  std::unordered_map<int32_t, int32_t> bucket_count;
  for (const Bucket& b : buckets) {
    std::unordered_set<int32_t> distinct(b.users.begin(), b.users.end());
    for (int32_t u : distinct) ++bucket_count[u];
  }
  int32_t omega = 0;
  for (const auto& [u, c] : bucket_count) omega = std::max(omega, c);
  return omega;
}

}  // namespace plp::core
