#include "sc/bitstream_batch.h"

#include <algorithm>
#include <stdexcept>

#include "simd/kernels.h"

namespace superbnn::sc {

BitstreamBatch::BitstreamBatch(std::size_t batch, std::size_t length)
    : batch_(batch), length_(length),
      stride(detail::wordsForLength(length)), words_(batch * stride, 0)
{
}

Bitstream
BitstreamBatch::stream(std::size_t b) const
{
    assert(b < batch_);
    return Bitstream::fromWords(
        std::vector<std::uint64_t>(words(b), words(b) + stride),
        length_);
}

void
BitstreamBatch::assign(std::size_t b, const Bitstream &s)
{
    assert(b < batch_);
    if (s.length() != length_)
        throw std::invalid_argument(
            "BitstreamBatch::assign: stream length mismatch");
    std::copy(s.words().begin(), s.words().end(), words(b));
}

std::size_t
BitstreamBatch::popcount(std::size_t b) const
{
    assert(b < batch_);
    return simd::active().popcountWords(words(b), stride);
}

double
BitstreamBatch::decode(std::size_t b, Encoding enc) const
{
    if (length_ == 0)
        return 0.0;
    const double p = static_cast<double>(popcount(b))
        / static_cast<double>(length_);
    return enc == Encoding::Unipolar ? p : 2.0 * p - 1.0;
}

} // namespace superbnn::sc
