#include "service/session.hh"

#include <array>
#include <vector>

#include "common/logging.hh"
#include "fault/failpoint.hh"
#include "obs/phase_telemetry.hh"
#include "obs/span.hh"

namespace livephase::service
{

namespace
{

/** Per-batch staging, one pair per thread rather than per session:
 *  a thread runs one batch at a time, and the capacity is reused
 *  across batches and sessions. */
thread_local std::vector<PhaseSample> scratch_samples;
thread_local std::vector<PhaseId> scratch_predictions;

} // namespace

Session::Session(uint64_t id, PhaseClassifier classifier,
                 PredictorPtr predictor, DvfsPolicy policy)
    : sid(id), classes(std::move(classifier)),
      pred(std::move(predictor)), pol(std::move(policy))
{
    if (!pred)
        fatal("Session %llu: null predictor",
              static_cast<unsigned long long>(id));
    if (pol.numPhases() != classes.numPhases())
        fatal("Session %llu: policy covers %d phases, classifier "
              "defines %d",
              static_cast<unsigned long long>(id), pol.numPhases(),
              classes.numPhases());
}

std::string
Session::predictorName() const
{
    return pred->name();
}

void
Session::processBatch(RecordView records, ResultSpan results)
{
    if (results.size() != records.size())
        fatal("Session %llu: %zu records but %zu result slots",
              static_cast<unsigned long long>(sid), records.size(),
              results.size());

    std::lock_guard lock(mu);

    // Phase-quality telemetry goes straight into this thread's
    // shard (obs/phase_telemetry.hh): plain adds, no atomic
    // read-modify-write, nothing when telemetry is off.
    obs::PhaseShard *const shard =
        obs::enabled() ? &obs::PhaseTelemetry::global().local()
                       : nullptr;

    // Failpoint "obs.accuracy": Error scrambles every prediction in
    // the batch to the "next phase up", collapsing predictor
    // accuracy without touching classification — the chaos suite
    // uses it to prove the watchdog's accuracy-collapse rule fires.
    const bool scramble = [] {
        if (auto f = FAULT_POINT("obs.accuracy"))
            return f.action == fault::Action::Error;
        return false;
    }();
    const int num_phases = classes.numPhases();

    // Staged over the whole batch — classify all, then
    // train/predict all, then translate all — so each stage is one
    // span, and the stages chain: each opens on the reading that
    // closed the one before. Record order is preserved within every
    // stage and only the predictor consumes another stage's output
    // (buffered in `scratch_samples`), so this is bit-identical to
    // the fused loop.
    scratch_samples.resize(records.size());
    scratch_predictions.resize(records.size());
    OBS_SPAN_FROM(classify_span, "core.classify", obs::SpanStamp{});
    for (size_t i = 0; i < records.size(); ++i) {
        const IntervalRecord &rec = records[i];
        scratch_samples[i] = classes.sample(rec.bus_tran_mem / rec.uops);
        results[i].phase = scratch_samples[i].phase;
    }

    // Telemetry stays off the per-interval path. Residency is
    // added per run of equal phases, in the branch the transition
    // count already takes. DVFS actions are derived rather than
    // counted: interval i's action is the setting of its predicted
    // phase, and a prediction that hits is interval i+1's observed
    // phase, so the predicted-phase counts are the batch's
    // residency shifted by one interval, corrected in the branches
    // that already catch a miss or a cold start.
    using obs::PhaseShard;
    std::array<int64_t, obs::PT_MAX_PHASES> residency{}, predicted{};
    uint64_t transitions = 0, mispredictions = 0, predictions = 0;
    OBS_SPAN_FROM(predict_span, "core.predict", classify_span.end());
    pred->observeAndPredictBatch(scratch_samples, scratch_predictions);
    size_t run_start = 0;
    for (size_t i = 0; i < records.size(); ++i) {
        const PhaseId observed = scratch_samples[i].phase;
        if (observed != last_observed) {
            if (shard && i > run_start)
                residency[PhaseShard::slot(last_observed)] +=
                    static_cast<int64_t>(i - run_start);
            run_start = i;
            if (last_observed != INVALID_PHASE) {
                ++transitions;
                if (shard)
                    shard->addTransition(last_observed, observed);
            }
        }
        if (last_predicted != INVALID_PHASE) {
            ++predictions;
            if (last_predicted != observed) {
                ++mispredictions;
                if (shard && i > 0) {
                    ++predicted[PhaseShard::slot(last_predicted)];
                    --predicted[PhaseShard::slot(observed)];
                }
            }
        } else if (shard && i > 0) {
            // Interval i-1 had no prediction and fell back to its
            // own phase.
            ++predicted[PhaseShard::slot(last_observed)];
            --predicted[PhaseShard::slot(observed)];
        }
        last_observed = observed;
        PhaseId next = scratch_predictions[i];
        if (scramble)
            next = (observed % num_phases) + 1;
        last_predicted = next;
        if (next == INVALID_PHASE)
            next = observed; // cold-start reactive fallback
        results[i].predicted_next = next;
    }

    OBS_SPAN_FROM(policy_span, "core.policy", predict_span.end());
    for (IntervalResult &res : results) {
        res.dvfs_index = static_cast<uint32_t>(
            pol.settingForPhase(res.predicted_next));
    }
    policy_span.end();

    if (shard && !records.empty()) {
        const size_t n = records.size();
        residency[PhaseShard::slot(last_observed)] +=
            static_cast<int64_t>(n - run_start);
        // The shift: interval 0's phase was predicted in an earlier
        // batch, and the last interval's prediction is not yet
        // checked.
        --predicted[PhaseShard::slot(scratch_samples[0].phase)];
        ++predicted[PhaseShard::slot(results[n - 1].predicted_next)];
        for (size_t s = 0; s < obs::PT_MAX_PHASES; ++s) {
            const auto phase = static_cast<PhaseId>(s + 1);
            if (residency[s] != 0)
                shard->addResidency(
                    phase, static_cast<uint64_t>(residency[s]));
            const int64_t predicting = residency[s] + predicted[s];
            if (predicting > 0)
                shard->addDvfsAction(
                    static_cast<uint32_t>(pol.settingForPhase(phase)),
                    static_cast<uint64_t>(predicting));
        }
        obs::PhaseTelemetry::global().recordBatch(
            *shard, n, predictions, mispredictions, transitions);
    }

    processed.fetch_add(records.size(), std::memory_order_relaxed);
    if (predictions)
        pred_total.fetch_add(predictions,
                             std::memory_order_relaxed);
    if (mispredictions)
        miss_total.fetch_add(mispredictions,
                             std::memory_order_relaxed);
    if (transitions)
        trans_total.fetch_add(transitions,
                              std::memory_order_relaxed);
}

} // namespace livephase::service
