/**
 * @file
 * Batched stochastic bitstreams: B equal-length streams packed
 * side-by-side in one contiguous word buffer.
 *
 * The batched inference path observes a crossbar column once per sample
 * but wants all samples' streams in one allocation, sample-major:
 * sample b's stream occupies words [b * wordsPerStream(),
 * (b + 1) * wordsPerStream()). Every per-sample segment obeys the
 * Bitstream storage invariants (64 bits per word, LSB-first, zero tail
 * bits), so accumulation can borrow StreamView windows into the batch
 * without copying, and detail::bernoulliFill can write a segment in
 * place.
 */

#ifndef SUPERBNN_SC_BITSTREAM_BATCH_H
#define SUPERBNN_SC_BITSTREAM_BATCH_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sc/bitstream.h"

namespace superbnn::sc {

/**
 * B stochastic streams of one shared length, packed contiguously.
 */
class BitstreamBatch
{
  public:
    /** Empty batch (no samples, zero length). */
    BitstreamBatch() = default;

    /** All-zero batch of @p batch streams, @p length bits each. */
    BitstreamBatch(std::size_t batch, std::size_t length);

    /** Number of streams (samples) in the batch. */
    std::size_t batch() const { return batch_; }

    /** Shared bit length of every stream. */
    std::size_t length() const { return length_; }

    /** Words per stream segment, ceil(length / 64). */
    std::size_t wordsPerStream() const { return stride; }

    /** Packed words of sample @p b (wordsPerStream() entries). */
    const std::uint64_t *
    words(std::size_t b) const
    {
        assert(b < batch_);
        return words_.data() + b * stride;
    }

    /** Mutable packed words of sample @p b. */
    std::uint64_t *
    words(std::size_t b)
    {
        assert(b < batch_);
        return words_.data() + b * stride;
    }

    /** Borrowed view of sample @p b (valid while the batch lives). */
    StreamView
    view(std::size_t b) const
    {
        return StreamView{words(b), length_};
    }

    /** Owning Bitstream copy of sample @p b. */
    Bitstream stream(std::size_t b) const;

    /**
     * Overwrite sample @p b with @p s. Throws std::invalid_argument
     * when the stream length differs from the batch length.
     */
    void assign(std::size_t b, const Bitstream &s);

    /** Number of ones in sample @p b's stream. */
    std::size_t popcount(std::size_t b) const;

    /** Value of sample @p b under the given encoding (0.0 if empty). */
    double decode(std::size_t b, Encoding enc) const;

  private:
    std::size_t batch_ = 0;
    std::size_t length_ = 0;
    std::size_t stride = 0; ///< words per stream
    std::vector<std::uint64_t> words_;
};

} // namespace superbnn::sc

#endif // SUPERBNN_SC_BITSTREAM_BATCH_H
