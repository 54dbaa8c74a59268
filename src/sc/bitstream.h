/**
 * @file
 * Stochastic-number bitstreams (paper Section 2.3).
 *
 * A stochastic number (SN) represents a value by the density of ones in a
 * bit sequence. Unipolar encoding maps x in [0,1] to P(X=1) = x; bipolar
 * encoding maps x in [-1,1] to P(X=1) = (x+1)/2. SupeRBNN uses bipolar
 * streams generated for free by the AQFP buffer's randomized switching.
 *
 * Storage is word-packed: 64 bits per std::uint64_t, least-significant bit
 * first, with the unused tail bits of the last word held at zero (the tail
 * invariant). All bulk operations — XNOR, AND, popcount, decode, Bernoulli
 * generation — run word-at-a-time through the simd::KernelSet dispatch
 * table (simd/kernels.h), so the crossbar executor's observe/accumulate
 * hot path picks up AVX2/AVX-512/NEON automatically with bit-identical
 * results on every arm.
 */

#ifndef SUPERBNN_SC_BITSTREAM_H
#define SUPERBNN_SC_BITSTREAM_H

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "tensor/random.h"

namespace superbnn::sc {

class Bitstream;

namespace detail {

/** Portable 64-bit popcount (hardware popcnt under GCC/Clang). */
inline std::size_t
popcountWord(std::uint64_t w)
{
#if defined(__GNUC__) || defined(__clang__)
    return static_cast<std::size_t>(__builtin_popcountll(w));
#else
    std::size_t n = 0;
    while (w) {
        w &= w - 1;
        ++n;
    }
    return n;
#endif
}

/** Storage words needed for a stream of @p length bits: ceil(length/64). */
std::size_t wordsForLength(std::size_t length);

/**
 * A counter-based raw-word stream: draw k is the SplitMix64 finalizer
 * of `seed + (k+1) * gamma` (the exact scheme documented on
 * simd::KernelSet::generateThresholdWords). Eight bytes of state
 * replace a 312-word mt19937_64 — seeding a fresh stream is free, and
 * because every draw is a pure function of (seed, counter) the
 * compare-against-threshold step runs vector-wide with no serial draw
 * buffer. Copyable; two equal CounterStreams produce identical bits.
 */
struct CounterStream
{
    std::uint64_t seed = 0;    ///< stream identity (never advanced)
    std::uint64_t counter = 0; ///< next raw-draw index

    /**
     * Raw draws consumed so far by a stream that started at counter 0
     * — the draw-accounting hook behind the aqfp::HardwareLedger's
     * bernoulliDraws column (fills always advance the counter, so the
     * position doubles as the exact consumption tally).
     */
    std::uint64_t consumed() const { return counter; }
};

/**
 * Fill ceil(length/64) words at @p words with an i.i.d. Bernoulli(p)
 * stream, LSB-first, tail bits zero, drawn from the counter stream.
 * The counter advances by exactly @p length — **also for the constant
 * p <= 0 / p >= 1 fills** — so a stream's bits depend only on (seed,
 * starting counter), never on the probabilities of streams generated
 * before it (position stability; the crossbar's column-major observe
 * layout leans on this). Generation runs through the simd::KernelSet
 * counter kernel and is bit-identical on every arm.
 */
void bernoulliFill(std::uint64_t *words, std::size_t length, double p,
                   CounterStream &stream);

/**
 * Tag of thresholdFor(p) for p >= 1: an all-ones fill. No real
 * threshold reaches it (the largest double below 1 maps to
 * 2^64 - 2^11); p <= 0 maps to threshold 0, whose fill is all zeros.
 */
constexpr std::uint64_t kOnesThreshold = ~std::uint64_t{0};

/**
 * The fixed-point Bernoulli threshold bernoulliFill compares draws
 * against: 0 for p <= 0, kOnesThreshold for p >= 1, otherwise
 * static_cast<uint64_t>(ldexp(p, 64)). Splitting it out lets a caller
 * that fills many streams of one probability compute it once.
 */
std::uint64_t thresholdFor(double p);

/**
 * The fill half of bernoulliFill: @p length bits of the counter stream
 * (@p seed, @p counter) against @p threshold (a thresholdFor value).
 * Threshold 0 and kOnesThreshold write the constant streams without
 * generating draws. bernoulliFill(words, length, p, stream) equals
 * thresholdFill(words, length, thresholdFor(p), stream.seed,
 * stream.counter) followed by advancing the counter by @p length.
 */
void thresholdFill(std::uint64_t *words, std::size_t length,
                   std::uint64_t threshold, std::uint64_t seed,
                   std::uint64_t counter);

/**
 * Rng-seeded convenience overload: consumes exactly **one** raw draw
 * from @p rng as the seed of a fresh CounterStream (counter 0) and
 * fills from it; p <= 0 and p >= 1 write constant streams without
 * consuming the draw. The word-generation routine behind
 * Bitstream::bernoulli.
 */
void bernoulliFill(std::uint64_t *words, std::size_t length, double p,
                   Rng &rng);

} // namespace detail

/**
 * Non-owning view of one packed stochastic stream: a word pointer plus a
 * bit length. The viewed words must obey the Bitstream invariants
 * (64-bit words, LSB-first, zero tail) and outlive the view. Used to
 * run accumulation over streams stored inside a BitstreamBatch without
 * materializing per-sample Bitstream copies.
 */
struct StreamView
{
    const std::uint64_t *words = nullptr; ///< ceil(length/64) packed words
    std::size_t length = 0;               ///< stream length in bits
};

/** Borrow a view of a Bitstream (valid while the stream lives). */
StreamView viewOf(const Bitstream &stream);

/** Encoding convention of a stochastic bitstream. */
enum class Encoding
{
    Unipolar,   ///< x in [0, 1], P(1) = x
    Bipolar,    ///< x in [-1, 1], P(1) = (x + 1) / 2
};

/**
 * A fixed-length stochastic bitstream, packed 64 bits per word.
 *
 * Bit i lives at words()[i / 64], bit position i % 64. Bits at positions
 * >= length() in the last word are always zero, so popcount() and the
 * word-wise combinators never need per-bit fixups except the single tail
 * mask after operations (XNOR) that can turn tail zeros into ones.
 */
class Bitstream
{
  public:
    /** Bits per storage word. */
    static constexpr std::size_t kWordBits = 64;

    /** All-zero stream of the given length. */
    explicit Bitstream(std::size_t length = 0);

    /**
     * Build from explicit bits. Every element must be 0 or 1; anything
     * else throws std::invalid_argument (a stray 2 must not silently
     * corrupt popcount/decode in release builds).
     */
    explicit Bitstream(const std::vector<std::uint8_t> &bits);

    /**
     * Adopt pre-packed words. @p words must hold exactly
     * ceil(length / 64) entries; tail bits beyond @p length are masked
     * off. Throws std::invalid_argument on a word-count mismatch.
     */
    static Bitstream fromWords(std::vector<std::uint64_t> words,
                               std::size_t length);

    /**
     * I.i.d. Bernoulli(p) stream of the given length: one raw draw
     * from @p rng seeds a counter-based SplitMix64 stream whose draws
     * are compared vector-wide against a fixed-point threshold (see
     * detail::bernoulliFill) — no per-bit engine draws, no per-bit
     * distribution objects.
     */
    static Bitstream bernoulli(std::size_t length, double p, Rng &rng);

    std::size_t length() const { return length_; }

    /** Number of storage words, ceil(length / 64). */
    std::size_t wordCount() const { return words_.size(); }

    std::uint8_t
    bit(std::size_t i) const
    {
        assert(i < length_);
        return static_cast<std::uint8_t>(
            (words_[i / kWordBits] >> (i % kWordBits)) & 1u);
    }

    void
    setBit(std::size_t i, bool value)
    {
        // Tail-range indices would silently break the zero-tail
        // invariant that popcount/decode rely on.
        assert(i < length_);
        const std::uint64_t mask = std::uint64_t{1} << (i % kWordBits);
        if (value)
            words_[i / kWordBits] |= mask;
        else
            words_[i / kWordBits] &= ~mask;
    }

    /** Number of ones in the stream (word-wise popcount). */
    std::size_t popcount() const;

    /**
     * Value under the given encoding (4/10 ones -> 0.4 or -0.2).
     * An empty stream decodes to 0.0 under either encoding (defined
     * behavior; the old code divided by zero in release builds).
     */
    double decode(Encoding enc) const;

    /** Elementwise XNOR: bipolar stochastic multiplication. */
    Bitstream xnorWith(const Bitstream &other) const;

    /** Elementwise AND: unipolar stochastic multiplication. */
    Bitstream andWith(const Bitstream &other) const;

    /**
     * popcount(xnorWith(other)) without materializing the product
     * stream — the inner loop of bipolar SC multiplication.
     */
    std::size_t xnorPopcount(const Bitstream &other) const;

    /** popcount(andWith(other)) without materializing the product. */
    std::size_t andPopcount(const Bitstream &other) const;

    /** "0100110100"-style string for diagnostics. */
    std::string toString() const;

    /** Unpacked byte-per-bit copy (compatibility / diagnostics view). */
    std::vector<std::uint8_t> bits() const;

    /** The packed words, LSB-first; tail bits are zero. */
    const std::vector<std::uint64_t> &words() const { return words_; }

  private:
    std::size_t length_ = 0;
    std::vector<std::uint64_t> words_;

    /** Mask selecting the in-range bits of the last word. */
    std::uint64_t tailMask() const;
    void maskTail();
    void requireSameLength(const Bitstream &other) const;
};

/**
 * Encode a real value into a stochastic stream of the given length by
 * i.i.d. Bernoulli draws (the paper's i.i.d. assumption). The value is
 * clamped into the encoding's range.
 */
Bitstream encode(double value, std::size_t length, Encoding enc, Rng &rng);

/** Probability of a '1' bit for a value under an encoding (clamped). */
double onesProbability(double value, Encoding enc);

} // namespace superbnn::sc

#endif // SUPERBNN_SC_BITSTREAM_H
