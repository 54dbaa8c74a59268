#include "sc/bitstream.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "simd/kernels.h"

namespace superbnn::sc {

namespace {

inline std::size_t
wordsFor(std::size_t length)
{
    return (length + Bitstream::kWordBits - 1) / Bitstream::kWordBits;
}

} // namespace

namespace detail {

std::size_t
wordsForLength(std::size_t length)
{
    return wordsFor(length);
}

namespace {

/** Constant fill for the p <= 0 / p >= 1 fast paths (tail kept zero). */
void
constantFill(std::uint64_t *words, std::size_t length, bool ones)
{
    constexpr std::size_t kWordBits = Bitstream::kWordBits;
    const std::size_t word_count = wordsFor(length);
    if (!ones) {
        std::fill(words, words + word_count, std::uint64_t{0});
        return;
    }
    std::fill(words, words + word_count, ~std::uint64_t{0});
    const std::size_t tail = length % kWordBits;
    if (tail != 0)
        words[word_count - 1] = (std::uint64_t{1} << tail) - 1;
}

} // namespace

std::uint64_t
thresholdFor(double p)
{
    if (p <= 0.0)
        return 0;
    if (p >= 1.0)
        return kOnesThreshold;
    // Fixed-point threshold: a raw 64-bit draw is below p * 2^64 with
    // probability p (to within 2^-64, far below the stream's own
    // sampling noise). p is strictly inside (0,1) here, so the product
    // stays below 2^64 and the cast is well defined.
    return static_cast<std::uint64_t>(std::ldexp(p, 64));
}

void
thresholdFill(std::uint64_t *words, std::size_t length,
              std::uint64_t threshold, std::uint64_t seed,
              std::uint64_t counter)
{
    if (length == 0)
        return;
    // No draw is below 0, so threshold 0 (p <= 0, or p below 2^-64)
    // is the all-zero stream.
    if (threshold == 0 || threshold == kOnesThreshold) {
        constantFill(words, length, threshold == kOnesThreshold);
        return;
    }
    simd::active().generateThresholdWords(words, length, seed, counter,
                                          threshold);
}

void
bernoulliFill(std::uint64_t *words, std::size_t length, double p,
              CounterStream &stream)
{
    thresholdFill(words, length, thresholdFor(p), stream.seed,
                  stream.counter);
    // Advance unconditionally: the words at a counter position must
    // not depend on whether earlier streams happened to be constant
    // (position stability — see the header contract).
    stream.counter += length;
}

void
bernoulliFill(std::uint64_t *words, std::size_t length, double p,
              Rng &rng)
{
    if (length == 0)
        return;
    // Constant streams keep the historical no-draws contract (an
    // all-zero or all-one fill must not perturb the caller's RNG).
    if (p <= 0.0 || p >= 1.0) {
        constantFill(words, length, p >= 1.0);
        return;
    }
    CounterStream stream{rng.raw()(), 0};
    bernoulliFill(words, length, p, stream);
}

} // namespace detail

StreamView
viewOf(const Bitstream &stream)
{
    return StreamView{stream.words().data(), stream.length()};
}

Bitstream::Bitstream(std::size_t length)
    : length_(length), words_(wordsFor(length), 0)
{
}

Bitstream::Bitstream(const std::vector<std::uint8_t> &bits)
    : length_(bits.size()), words_(wordsFor(bits.size()), 0)
{
    for (std::size_t i = 0; i < bits.size(); ++i) {
        if (bits[i] > 1)
            throw std::invalid_argument(
                "Bitstream: bit value must be 0 or 1");
        words_[i / kWordBits] |= static_cast<std::uint64_t>(bits[i])
            << (i % kWordBits);
    }
}

Bitstream
Bitstream::fromWords(std::vector<std::uint64_t> words, std::size_t length)
{
    if (words.size() != wordsFor(length))
        throw std::invalid_argument(
            "Bitstream::fromWords: word count does not match length");
    Bitstream out;
    out.length_ = length;
    out.words_ = std::move(words);
    out.maskTail();
    return out;
}

Bitstream
Bitstream::bernoulli(std::size_t length, double p, Rng &rng)
{
    Bitstream out(length);
    detail::bernoulliFill(out.words_.data(), length, p, rng);
    return out;
}

std::uint64_t
Bitstream::tailMask() const
{
    const std::size_t tail = length_ % kWordBits;
    return tail == 0 ? ~std::uint64_t{0}
                     : (std::uint64_t{1} << tail) - 1;
}

void
Bitstream::maskTail()
{
    if (!words_.empty())
        words_.back() &= tailMask();
}

void
Bitstream::requireSameLength(const Bitstream &other) const
{
    if (length_ != other.length_)
        throw std::invalid_argument(
            "Bitstream: operand lengths differ");
}

std::size_t
Bitstream::popcount() const
{
    return simd::active().popcountWords(words_.data(), words_.size());
}

double
Bitstream::decode(Encoding enc) const
{
    if (length_ == 0)
        return 0.0;
    const double p = static_cast<double>(popcount())
        / static_cast<double>(length_);
    return enc == Encoding::Unipolar ? p : 2.0 * p - 1.0;
}

Bitstream
Bitstream::xnorWith(const Bitstream &other) const
{
    requireSameLength(other);
    Bitstream out(length_);
    for (std::size_t w = 0; w < words_.size(); ++w)
        out.words_[w] = ~(words_[w] ^ other.words_[w]);
    out.maskTail();
    return out;
}

Bitstream
Bitstream::andWith(const Bitstream &other) const
{
    requireSameLength(other);
    Bitstream out(length_);
    for (std::size_t w = 0; w < words_.size(); ++w)
        out.words_[w] = words_[w] & other.words_[w];
    return out;
}

std::size_t
Bitstream::xnorPopcount(const Bitstream &other) const
{
    requireSameLength(other);
    return simd::active().xnorPopcountWords(
        words_.data(), other.words_.data(), words_.size(), tailMask());
}

std::size_t
Bitstream::andPopcount(const Bitstream &other) const
{
    requireSameLength(other);
    return simd::active().andPopcountWords(
        words_.data(), other.words_.data(), words_.size());
}

std::string
Bitstream::toString() const
{
    std::string s;
    s.reserve(length_);
    for (std::size_t i = 0; i < length_; ++i)
        s.push_back(bit(i) ? '1' : '0');
    return s;
}

std::vector<std::uint8_t>
Bitstream::bits() const
{
    std::vector<std::uint8_t> out(length_);
    for (std::size_t i = 0; i < length_; ++i)
        out[i] = bit(i);
    return out;
}

double
onesProbability(double value, Encoding enc)
{
    double p = (enc == Encoding::Unipolar) ? value : (value + 1.0) / 2.0;
    return std::clamp(p, 0.0, 1.0);
}

Bitstream
encode(double value, std::size_t length, Encoding enc, Rng &rng)
{
    return Bitstream::bernoulli(length, onesProbability(value, enc), rng);
}

} // namespace superbnn::sc
