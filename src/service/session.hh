/**
 * @file
 * One client session: an independent stream of interval records run
 * through its own classifier + predictor + DVFS policy.
 *
 * A session is exactly one instance of the paper's PMI-handler
 * pipeline (classify the ending 100M-uop interval, train/query the
 * predictor, look up the DVFS setting) lifted out of the kernel
 * module and owned by a service client. Sessions never share
 * predictor state — the state-isolation property the predictor
 * clone()/reset() hooks and tests/core/predictor_isolation_test.cc
 * guarantee — so N concurrent sessions produce bit-identical
 * sequences to N sequential single-stream runs.
 *
 * Batched ingestion is the service's throughput lever: an entire
 * SubmitBatch frame is run under ONE acquisition of the session
 * mutex, so the per-frame synchronization cost is amortized over up
 * to K intervals.
 */

#ifndef LIVEPHASE_SERVICE_SESSION_HH
#define LIVEPHASE_SERVICE_SESSION_HH

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>

#include "core/dvfs_policy.hh"
#include "core/phase_classifier.hh"
#include "core/predictor.hh"
#include "service/protocol.hh"

namespace livephase::service
{

/**
 * Per-client phase-prediction pipeline with its own lock.
 */
class Session
{
  public:
    /**
     * @param id         service-assigned session id (> 0).
     * @param classifier phase definition for this session.
     * @param predictor  owned predictor; fatal() when null.
     * @param policy     phase -> DVFS translation.
     */
    Session(uint64_t id, PhaseClassifier classifier,
            PredictorPtr predictor, DvfsPolicy policy);

    /** Service-assigned id. */
    uint64_t id() const { return sid; }

    /** Predictor identifier, for stats/inspection. */
    std::string predictorName() const;

    /**
     * Run a whole batch through the pipeline under one lock
     * acquisition, writing results[i] for records[i]. Records must
     * be valid() — the service rejects frames containing invalid
     * records before reaching here — and the two spans must be the
     * same size (fatal() otherwise; sizing the result window is the
     * caller's contract, which is what lets the service point it at
     * reused storage).
     *
     * Per record: Mem/Uop = bus_tran_mem / uops is classified, the
     * sample trains the predictor (one batched predictor call — see
     * PhasePredictor::observeAndPredictBatch), and the DVFS
     * recommendation is looked up from the *predicted next* phase
     * (falling back to the observed phase while the predictor is
     * cold, mirroring the deployed handler).
     *
     * Zero-allocation at steady state: classification and raw
     * predictions go through per-thread scratch vectors whose
     * capacity survives across batches, so a session's own size does
     * not grow with the largest batch it has seen.
     */
    void processBatch(RecordView records, ResultSpan results);

    /** Total intervals this session has processed. */
    uint64_t intervalsProcessed() const
    {
        return processed.load(std::memory_order_relaxed);
    }

    /** Predictions scored so far (intervals where a prior
     *  prediction existed to compare against). */
    uint64_t predictions() const
    {
        return pred_total.load(std::memory_order_relaxed);
    }

    /** Scored predictions that were wrong. */
    uint64_t mispredictions() const
    {
        return miss_total.load(std::memory_order_relaxed);
    }

    /** Observed phase changes. */
    uint64_t transitions() const
    {
        return trans_total.load(std::memory_order_relaxed);
    }

    /** Prediction hit rate since open; 1.0 before any scoring. */
    double hitRate() const
    {
        const uint64_t p = predictions();
        const uint64_t m = mispredictions();
        if (p == 0)
            return 1.0;
        return static_cast<double>(p > m ? p - m : 0) /
            static_cast<double>(p);
    }

    /** Idle-tracking timestamp (manager clock, ns). */
    uint64_t lastActiveNs() const
    {
        return last_active.load(std::memory_order_relaxed);
    }

    /** Update the idle-tracking timestamp. */
    void touch(uint64_t now_ns)
    {
        last_active.store(now_ns, std::memory_order_relaxed);
    }

  private:
    uint64_t sid;
    PhaseClassifier classes;
    PredictorPtr pred;
    DvfsPolicy pol;

    std::mutex mu; ///< serializes batches within the session
    /** Previous interval's observed / predicted phase (guarded by
     *  mu), feeding the transition and misprediction counters. */
    PhaseId last_observed = INVALID_PHASE;
    PhaseId last_predicted = INVALID_PHASE;
    std::atomic<uint64_t> last_active{0};
    std::atomic<uint64_t> processed{0};
    /** Cumulative predictor-quality counters (relaxed; read by the
     *  query-phases per-session detail path). */
    std::atomic<uint64_t> pred_total{0};
    std::atomic<uint64_t> miss_total{0};
    std::atomic<uint64_t> trans_total{0};
};

} // namespace livephase::service

#endif // LIVEPHASE_SERVICE_SESSION_HH
