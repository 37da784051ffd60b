// Bit-granular serialization.
//
// Label length is the headline quantity of the paper (Lemma 2.5), so labels
// are serialized to an actual bit stream and their size reported in bits,
// rather than estimated from in-memory struct sizes.
//
// Encodings provided:
//   - fixed-width unsigned fields,
//   - Elias gamma (for small positive integers of unknown magnitude),
//   - unsigned varint-style gamma for values that may be zero.
#pragma once

#include <bit>
#include <cstdint>
#include <cstddef>
#include <vector>

namespace fsdl {

/// Append-only bit buffer.
class BitWriter {
 public:
  /// Append the low `width` bits of `value` (LSB first). width in [0, 64].
  void write_bits(std::uint64_t value, unsigned width);

  /// Elias gamma code for value >= 1.
  void write_gamma(std::uint64_t value);

  /// Gamma code shifted to accept 0 (encodes value + 1).
  void write_gamma0(std::uint64_t value) { write_gamma(value + 1); }

  std::size_t bit_size() const noexcept { return bit_size_; }
  const std::vector<std::uint64_t>& words() const noexcept { return words_; }

  /// Drop slack capacity; call once a label is fully written.
  void shrink_to_fit() { words_.shrink_to_fit(); }

  /// Reconstitute a buffer from persisted words (scheme deserialization).
  static BitWriter from_words(std::vector<std::uint64_t> words,
                              std::size_t bit_size) {
    BitWriter w;
    w.words_ = std::move(words);
    w.bit_size_ = bit_size;
    return w;
  }

 private:
  std::vector<std::uint64_t> words_;
  std::size_t bit_size_ = 0;
};

/// Sequential reader over a BitWriter's buffer.
///
/// Both reads are inline: a label decode is a long run of small gamma codes,
/// so the per-call cost dominates.
class BitReader {
 public:
  explicit BitReader(const BitWriter& writer) noexcept
      : words_(&writer.words()), bit_size_(writer.bit_size()) {}

  /// Next `width` bits, LSB first. Throws std::out_of_range past the end.
  std::uint64_t read_bits(unsigned width) {
    if (width > 64) bad_width();
    if (width == 0) return 0;
    if (pos_ + width > bit_size_) past_end();

    const std::size_t word_index = pos_ / 64;
    const unsigned offset = static_cast<unsigned>(pos_ % 64);
    std::uint64_t value = (*words_)[word_index] >> offset;
    if (offset + width > 64) {
      value |= (*words_)[word_index + 1] << (64 - offset);
    }
    pos_ += width;
    if (width < 64) value &= (std::uint64_t{1} << width) - 1;
    return value;
  }

  /// Elias gamma code. Word-level when the whole code lies in the 64 bits
  /// at the cursor (every code of a value below 2^32 that does not run past
  /// the end); read_gamma_slow() handles the rest bit by bit.
  std::uint64_t read_gamma() {
    if (pos_ < bit_size_) {
      const std::size_t avail = bit_size_ - pos_;
      const std::size_t word_index = pos_ / 64;
      const unsigned offset = static_cast<unsigned>(pos_ % 64);
      std::uint64_t window = (*words_)[word_index] >> offset;
      if (offset != 0 && avail > 64 - offset) {
        window |= (*words_)[word_index + 1] << (64 - offset);
      }
      // Bits past the end may sit in the window unmasked: a code that
      // reaches them is wider than `avail` and takes the slow path, as does
      // an all-zero window (countr_zero is then 64).
      const unsigned zeros = static_cast<unsigned>(std::countr_zero(window));
      const unsigned width = 2 * zeros + 1;
      if (width <= 64 && width <= avail) {
        const std::uint64_t low =
            (window >> (zeros + 1)) & ((std::uint64_t{1} << zeros) - 1);
        pos_ += width;
        return (std::uint64_t{1} << zeros) | low;
      }
    }
    return read_gamma_slow();
  }

  std::uint64_t read_gamma0() { return read_gamma() - 1; }

  std::size_t position() const noexcept { return pos_; }
  bool exhausted() const noexcept { return pos_ >= bit_size_; }

 private:
  [[noreturn]] static void bad_width();
  [[noreturn]] static void past_end();
  std::uint64_t read_gamma_slow();

  const std::vector<std::uint64_t>* words_;
  std::size_t bit_size_;
  std::size_t pos_ = 0;
};

/// Number of bits needed to store values in [0, n), at least 1.
unsigned bits_for(std::uint64_t n) noexcept;

}  // namespace fsdl
