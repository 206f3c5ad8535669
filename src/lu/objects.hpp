// Data objects of the block LU application (paper §5, Fig. 5/7).
//
// Matrix payloads travel as BlockPayload, which supports *phantom* form for
// the NOALLOC simulation mode: the logical dimensions (and hence the exact
// wire size) are preserved while no element storage is allocated (paper
// §4/§7).
#pragma once

#include <cstdint>
#include <vector>

#include "linalg/matrix.hpp"
#include "serial/object.hpp"

namespace dps::lu {

struct BlockPayload {
  std::int32_t rows = 0;
  std::int32_t cols = 0;
  std::vector<double> data; // empty while rows*cols > 0 => phantom

  bool phantom() const { return data.empty() && rows > 0 && cols > 0; }
  std::size_t logicalBytes() const {
    return static_cast<std::size_t>(rows) * cols * sizeof(double);
  }

  static BlockPayload fromMatrix(const lin::Matrix& m) {
    BlockPayload p;
    p.rows = m.rows();
    p.cols = m.cols();
    p.data = m.storage();
    return p;
  }
  static BlockPayload phantomOf(std::int32_t rows, std::int32_t cols) {
    BlockPayload p;
    p.rows = rows;
    p.cols = cols;
    return p;
  }
  lin::Matrix toMatrix() const;

  /// rows, cols, the 1-byte phantom flag and rows*cols doubles: the same
  /// count whether the payload is real or phantom.
  std::size_t wireSize() const {
    return serial::byteCount(rows, cols, std::uint8_t{}) + logicalBytes();
  }
};

/// Program input: factorize the n x n test matrix with block size r.
struct StartLu final : serial::ObjectBase {
  std::int32_t n = 0;
  std::int32_t r = 0;
  std::uint64_t seed = 0;
  std::size_t wireSize() const override { return serial::byteCount(n, r, seed); }
};

/// Panel results for one trailing column: L11 + pivots (paper step 2).
struct TrsmRequest final : serial::ObjectBase {
  std::int32_t level = 0;
  std::int32_t col = 0;
  BlockPayload l11;                  // r x r unit-lower factor
  std::vector<std::int32_t> pivots;  // panel-local pivot rows
  std::size_t wireSize() const override {
    return serial::byteCount(level, col, pivots) + l11.wireSize();
  }
};

/// T12 block ready; carries the solved block to the multiplication stream.
struct T12Ready final : serial::ObjectBase {
  std::int32_t level = 0;
  std::int32_t col = 0;
  BlockPayload t12; // r x r
  std::size_t wireSize() const override { return serial::byteCount(level, col) + t12.wireSize(); }
};

/// One block multiplication L21_i * T12_j: "two matrix blocks of size r x r"
/// (paper §5).
struct MultRequest final : serial::ObjectBase {
  std::int32_t level = 0;
  std::int32_t i = 0; // absolute row block index
  std::int32_t j = 0; // absolute column block index
  BlockPayload a;     // L21_i  (r x r)
  BlockPayload b;     // T12_j  (r x r)
  std::size_t wireSize() const override {
    return serial::byteCount(level, i, j) + a.wireSize() + b.wireSize();
  }
};

/// Product block heading to the subtraction at the column owner.
struct MultResult final : serial::ObjectBase {
  std::int32_t level = 0;
  std::int32_t i = 0;
  std::int32_t j = 0;
  BlockPayload c; // r x r
  std::size_t wireSize() const override { return serial::byteCount(level, i, j) + c.wireSize(); }
};

/// Subtraction done for block (i, j) of the level's trailing matrix.
struct SubNotify final : serial::ObjectBase {
  std::int32_t level = 0;
  std::int32_t i = 0;
  std::int32_t j = 0;
  std::size_t wireSize() const override { return serial::byteCount(level, i, j); }
};

/// Row-flip request for an already-factored column (paper op (g)).
struct FlipRequest final : serial::ObjectBase {
  std::int32_t level = 0; // level whose pivots are applied
  std::int32_t col = 0;   // target column block (col < level)
  std::vector<std::int32_t> pivots;
  std::size_t wireSize() const override { return serial::byteCount(level, col, pivots); }
};

/// Row flips applied (termination bookkeeping, paper op (h)).
struct FlipNotify final : serial::ObjectBase {
  std::int32_t level = 0;
  std::int32_t col = 0;
  std::size_t wireSize() const override { return serial::byteCount(level, col); }
};

/// Output object: all row flips of `level`'s pivots are applied.
struct LevelDone final : serial::ObjectBase {
  std::int32_t level = 0;
  std::size_t wireSize() const override { return serial::byteCount(level); }
};

/// Output object: the final panel is factored.
struct Factored final : serial::ObjectBase {
  std::int32_t levels = 0;
  std::size_t wireSize() const override { return serial::byteCount(levels); }
};

// --- parallel sub-block multiplication (PM, paper Fig. 7) ---

/// Column strip of the second matrix (r x s), distributed for storage.
struct PmStrip final : serial::ObjectBase {
  std::int32_t level = 0, i = 0, j = 0;
  std::int32_t strip = 0;      // strip index within B
  std::int32_t home = 0;       // thread coordinating this multiplication
  BlockPayload b;              // r x s
  std::size_t wireSize() const override {
    return serial::byteCount(level, i, j, strip, home) + b.wireSize();
  }
};

/// Storage acknowledgement for one strip.
struct PmStripStored final : serial::ObjectBase {
  std::int32_t level = 0, i = 0, j = 0;
  std::int32_t strip = 0;
  std::int32_t storedAt = 0; // worker thread holding the strip
  std::int32_t home = 0;
  std::size_t wireSize() const override {
    return serial::byteCount(level, i, j, strip, storedAt, home);
  }
};

/// Line block of the first matrix (s x r) sent to one storing thread.
struct PmLineWork final : serial::ObjectBase {
  std::int32_t level = 0, i = 0, j = 0;
  std::int32_t rowStrip = 0; // strip index within A
  std::int32_t target = 0;   // thread that stores the B strips below
  std::int32_t home = 0;
  std::int32_t lastRowStrip = 0; // 1 when this is the final line for cleanup
  std::vector<std::int32_t> strips; // B strips stored at `target`
  BlockPayload a; // s x r
  std::size_t wireSize() const override {
    return serial::byteCount(level, i, j, rowStrip, target, home, lastRowStrip, strips) +
           a.wireSize();
  }
};

/// All s x s tiles produced by one line block on one storing thread,
/// concatenated column-wise (tiles.cols = s * strips.size()).
struct PmTiles final : serial::ObjectBase {
  std::int32_t level = 0, i = 0, j = 0;
  std::int32_t rowStrip = 0;
  std::vector<std::int32_t> strips;
  BlockPayload tiles;
  std::size_t wireSize() const override {
    return serial::byteCount(level, i, j, rowStrip, strips) + tiles.wireSize();
  }
};

} // namespace dps::lu
