// Alignment and padding invariants of the padded row storage introduced
// for the vectorized local-update path:
//
//   * Every W/W' row pointer of an SgnsModel is 64-byte aligned — after
//     construction, copy, move, model-file load, and checkpoint
//     encode/decode — and the bias arena is aligned too.
//   * The padding tail of every row is exactly 0.0 through all of those
//     paths, which is what lets whole-storage-span comparisons and norms
//     keep working on padded arenas.
//   * RowMap (and therefore LocalModel overlays and SparseDelta
//     accumulators) hands out 64-byte-aligned rows across arena growth,
//     rehashing, and Clear()-then-reuse for SIMD-relevant widths
//     (dim >= 8); narrower rows are packed dense on purpose (padding a
//     dim-1 bias row to a cache line would 8x the arena), so only their
//     arena base is alignment-checked.

#include <cstdio>
#include <filesystem>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "ckpt/checkpoint.h"
#include "common/aligned.h"
#include "common/rng.h"
#include "sgns/local_model.h"
#include "sgns/model.h"
#include "sgns/model_io.h"
#include "sgns/row_map.h"
#include "sgns/sparse_delta.h"

namespace plp::sgns {
namespace {

// Dims straddling the 8-double stride quantum: sub-line, exact line, and
// just past it, plus the paper default.
const int32_t kDims[] = {1, 3, 7, 8, 9, 16, 50};
constexpr int32_t kLocations = 13;

SgnsModel MakeModel(int32_t dim, uint64_t seed = 42) {
  Rng rng(seed);
  SgnsConfig config;
  config.embedding_dim = dim;
  auto model = SgnsModel::Create(kLocations, config, rng);
  EXPECT_TRUE(model.ok());
  return std::move(model).value();
}

void ExpectModelAlignedAndPadded(const SgnsModel& model) {
  const size_t dim = static_cast<size_t>(model.dim());
  ASSERT_EQ(model.row_stride(), PaddedRowStride(dim));
  for (int32_t l = 0; l < model.num_locations(); ++l) {
    EXPECT_TRUE(IsAligned(model.InRow(l).data())) << "in row " << l;
    EXPECT_TRUE(IsAligned(model.OutRow(l).data())) << "out row " << l;
  }
  EXPECT_TRUE(IsAligned(model.TensorData(Tensor::kBias).data()));
  // Padding stays exactly 0.0: walk the storage spans and check every slot
  // past the logical dim of each row.
  for (Tensor t : {Tensor::kWIn, Tensor::kWOut}) {
    const std::span<const double> storage = model.TensorData(t);
    ASSERT_EQ(storage.size(),
              static_cast<size_t>(model.num_locations()) * model.row_stride());
    for (size_t l = 0; l < static_cast<size_t>(model.num_locations()); ++l) {
      for (size_t d = dim; d < model.row_stride(); ++d) {
        EXPECT_EQ(storage[l * model.row_stride() + d], 0.0)
            << "tensor " << static_cast<int>(t) << " row " << l << " pad "
            << d;
      }
    }
  }
}

TEST(AlignmentTest, ModelRowsAlignedAfterCreate) {
  for (int32_t dim : kDims) {
    SCOPED_TRACE("dim=" + std::to_string(dim));
    const SgnsModel model = MakeModel(dim);
    ExpectModelAlignedAndPadded(model);
  }
}

TEST(AlignmentTest, ModelRowsAlignedAfterCopyAndMove) {
  const SgnsModel model = MakeModel(9);
  SgnsModel copy = model;
  ExpectModelAlignedAndPadded(copy);
  SgnsModel moved = std::move(copy);
  ExpectModelAlignedAndPadded(moved);
  SgnsModel assigned;
  assigned = std::move(moved);
  ExpectModelAlignedAndPadded(assigned);
}

TEST(AlignmentTest, ModelRowsAlignedAfterFileRoundTrip) {
  for (int32_t dim : {3, 50}) {
    SCOPED_TRACE("dim=" + std::to_string(dim));
    const SgnsModel model = MakeModel(dim);
    const std::string path =
        (std::filesystem::temp_directory_path() /
         ("plp_alignment_test_" + std::to_string(dim) + ".plpm"))
            .string();
    ASSERT_TRUE(SaveModel(model, path).ok());
    auto loaded = LoadModel(path);
    ASSERT_TRUE(loaded.ok()) << loaded.status().message();
    std::remove(path.c_str());
    ExpectModelAlignedAndPadded(*loaded);
    // And the logical parameters survived the padded round trip bitwise.
    for (int32_t l = 0; l < model.num_locations(); ++l) {
      for (int32_t d = 0; d < dim; ++d) {
        EXPECT_EQ(loaded->InRow(l)[d], model.InRow(l)[d]);
        EXPECT_EQ(loaded->OutRow(l)[d], model.OutRow(l)[d]);
      }
      EXPECT_EQ(loaded->bias(l), model.bias(l));
    }
  }
}

TEST(AlignmentTest, ModelRowsAlignedAfterCheckpointRoundTrip) {
  ckpt::TrainerSnapshot snapshot;
  snapshot.kind = ckpt::TrainerKind::kPrivate;
  snapshot.step = 5;
  snapshot.rng = Rng(77).SaveState();
  snapshot.ledger_blob = "ledger";
  snapshot.optimizer_name = "dp_adam";
  snapshot.optimizer_blob = "";
  snapshot.model = MakeModel(9);
  const std::string bytes = ckpt::EncodeSnapshot(snapshot);
  auto decoded = ckpt::DecodeSnapshot(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status().message();
  ExpectModelAlignedAndPadded(decoded->model);
  for (int32_t l = 0; l < snapshot.model.num_locations(); ++l) {
    for (int32_t d = 0; d < snapshot.model.dim(); ++d) {
      EXPECT_EQ(decoded->model.InRow(l)[d], snapshot.model.InRow(l)[d]);
      EXPECT_EQ(decoded->model.OutRow(l)[d], snapshot.model.OutRow(l)[d]);
    }
    EXPECT_EQ(decoded->model.bias(l), snapshot.model.bias(l));
  }
}

TEST(AlignmentTest, RowMapRowsAlignedAcrossGrowthAndReuse) {
  for (int32_t dim : kDims) {
    SCOPED_TRACE("dim=" + std::to_string(dim));
    // Narrow rows (dim < 8) are packed dense: successive rows cannot all
    // be 64-byte aligned, only the arena base is.
    const bool padded = dim >= 8;
    RowMap map(dim);
    // Enough inserts to force several rehashes and arena reallocations.
    for (int32_t key = 0; key < 200; ++key) {
      const std::span<double> row = map.FindOrInsertZero(key);
      if (padded) {
        EXPECT_TRUE(IsAligned(row.data())) << "key " << key;
      }
      EXPECT_EQ(row.size(), static_cast<size_t>(dim));
    }
    // Growth must not have moved earlier rows off alignment, and the first
    // row is the arena base — aligned at every width.
    bool first = true;
    map.ForEach([&](int32_t key, std::span<const double> row) {
      if (padded || first) {
        EXPECT_TRUE(IsAligned(row.data())) << "key " << key;
      }
      first = false;
    });
    // Clear keeps capacity; reused rows must still be aligned.
    map.Clear();
    for (int32_t key = 500; key < 550; ++key) {
      const std::span<double> row = map.FindOrInsertZero(key);
      if (padded || key == 500) {
        EXPECT_TRUE(IsAligned(row.data())) << "key " << key;
      }
    }
  }
}

TEST(AlignmentTest, LocalModelOverlayRowsAligned) {
  const SgnsModel base = MakeModel(9);
  LocalModel overlay(base);
  for (int32_t l = 0; l < base.num_locations(); ++l) {
    EXPECT_TRUE(IsAligned(overlay.MutableInRow(l).data())) << "in " << l;
    EXPECT_TRUE(IsAligned(overlay.MutableOutRow(l).data())) << "out " << l;
  }
}

TEST(AlignmentTest, SparseDeltaRowsAligned) {
  SparseDelta delta(9);
  for (int32_t row = 0; row < 64; ++row) {
    EXPECT_TRUE(IsAligned(delta.Row(Tensor::kWIn, row).data()));
    EXPECT_TRUE(IsAligned(delta.Row(Tensor::kWOut, row).data()));
  }
  delta.Clear();
  EXPECT_TRUE(IsAligned(delta.Row(Tensor::kWIn, 1000).data()));
}

}  // namespace
}  // namespace plp::sgns
