#include <algorithm>
#include <numeric>

#include "expected.h"
#include "stats.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {

namespace {

/** Hash of one image's answer: (index, predicted class, scores). */
std::uint64_t
imageHash(std::size_t index, const std::vector<double> &scores)
{
    const std::uint64_t predicted = static_cast<std::uint64_t>(
        std::max_element(scores.begin(), scores.end()) - scores.begin());
    Digest d;
    d.addValue(static_cast<std::uint64_t>(index));
    d.addValue(predicted);
    for (const double s : scores)
        d.addValue(s);
    return d.value();
}

} // namespace

double
EvalCnnBench::setup()
{
    evaluator_.reset();
    work_.reset();
    const auto t0 = Clock::now();
    auto work = std::make_unique<CnnWorkload>(trainCnn());
    const auto t1 = Clock::now();
    evaluator_ = std::make_unique<core::HardwareEvaluator>(
        aqfp::AttenuationModel(), cnnConfig());
    evaluator_->mapCnn(*work->cnn);
    const auto t2 = Clock::now();
    work_ = std::move(work);
    trainS_ = secondsBetween(t0, t1);
    mapMs_ = 1e3 * secondsBetween(t1, t2);
    return secondsBetween(t0, t2);
}

void
EvalCnnBench::buildReference(Outcome &out)
{
    const data::Dataset &test = work_->data.test;
    images_.clear();
    for (std::size_t i = 0; i < kImages; ++i)
        images_.push_back(test.sample(i));
    refHash_.assign(kImages, 0);
    std::size_t correct = 0;
    const aqfp::LedgerCounts before = evaluator_->totalLedgerCounts();
    for (std::size_t b0 = 0; b0 < kImages; b0 += kBatch) {
        std::vector<Tensor> batch(images_.begin() + b0,
                                  images_.begin() + b0 + kBatch);
        std::vector<std::uint64_t> seeds;
        for (std::size_t i = b0; i < b0 + kBatch; ++i)
            seeds.push_back(imageSeed(i));
        const auto scores = evaluator_->classScoresSeeded(batch, seeds);
        for (std::size_t j = 0; j < kBatch; ++j) {
            refHash_[b0 + j] = imageHash(b0 + j, scores[j]);
            const std::size_t predicted = static_cast<std::size_t>(
                std::max_element(scores[j].begin(), scores[j].end())
                - scores[j].begin());
            correct += predicted == test.labels[b0 + j];
        }
    }
    Digest pass;
    for (const std::uint64_t h : refHash_)
        pass.addValue(h);
    out.attempted += kImages;
    if (pass.value() != expected::kCnnPassDigest
        || correct != expected::kCnnPassCorrect)
        out.fail(kImages,
                 "eval-cnn: reference pass digest "
                     + std::to_string(pass.value()) + " / accuracy "
                     + std::to_string(correct) + " of 64 differs from the "
                     + "recorded " + std::to_string(expected::kCnnPassDigest)
                     + " / " + std::to_string(expected::kCnnPassCorrect));
    aqfp::LedgerCounts per_image;
    if (!countsPerImage(before, evaluator_->totalLedgerCounts(), kImages,
                        per_image)
        || aqfp::toJson(per_image) != expected::kCnnCountsPerImage)
        out.fail(1, "eval-cnn: CNN ledger per image "
                        + aqfp::toJson(per_image)
                        + " differs from the recorded "
                        + expected::kCnnCountsPerImage);
}

EvalCnnBench::Result
EvalCnnBench::run(double seconds, std::uint64_t seed, Outcome &out)
{
    SeedStream order(mix64(seed ^ 0xE7A1ULL));
    std::vector<std::size_t> perm(kImages);
    std::vector<double> passRate, batchUs;

    const trace::Span phase("eval_cnn.eval");
    const double cpu0 = cpuSeconds();
    const auto start = Clock::now();
    const auto end = start
                     + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
    while (Clock::now() < end) {
        // A fresh seeded image order per pass, so batch composition
        // changes while every image's answer must not.
        std::iota(perm.begin(), perm.end(), 0);
        for (std::size_t i = kImages - 1; i > 0; --i)
            std::swap(perm[i], perm[order.below(i + 1)]);
        const aqfp::LedgerCounts before = evaluator_->totalLedgerCounts();
        std::uint64_t mismatched = 0;
        const auto passStart = Clock::now();
        for (std::size_t b0 = 0; b0 < kImages; b0 += kBatch) {
            std::vector<Tensor> batch;
            std::vector<std::uint64_t> seeds;
            for (std::size_t j = b0; j < b0 + kBatch; ++j) {
                batch.push_back(images_[perm[j]]);
                seeds.push_back(imageSeed(perm[j]));
            }
            trace::Span call("core.classScoresSeeded");
            const auto scores = evaluator_->classScoresSeeded(batch, seeds);
            batchUs.push_back(call.finish() / 1e3);
            for (std::size_t j = 0; j < kBatch; ++j) {
                const std::size_t image = perm[b0 + j];
                mismatched += imageHash(image, scores[j]) != refHash_[image];
            }
        }
        passRate.push_back(static_cast<double>(kImages)
                           / secondsBetween(passStart, Clock::now()));
        out.attempted += kImages;
        if (mismatched)
            out.fail(mismatched, "eval-cnn: image answer differs from the "
                                 "reference pass");
        aqfp::LedgerCounts per_image;
        if (!countsPerImage(before, evaluator_->totalLedgerCounts(),
                            kImages, per_image)
            || aqfp::toJson(per_image) != expected::kCnnCountsPerImage)
            out.fail(kImages, "eval-cnn: pass ledger per image "
                                  + aqfp::toJson(per_image)
                                  + " differs from the recorded counts");
    }
    const double wall = secondsBetween(start, Clock::now());

    Result res;
    res.imagesPerS = median(passRate);
    res.batchP50Us = percentile(batchUs, 50.0);
    res.cpuUtil = cpuUtilization(cpuSeconds() - cpu0, wall);
    return res;
}

} // namespace perfbench
