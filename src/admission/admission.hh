/**
 * @file
 * Public face of the admission subsystem: configuration (including
 * the CLI's `--qos` spec grammar) and the AdmissionControl object a
 * service embeds — a Ratekeeper feedback controller wired to a
 * TagThrottler, plus the controller thread's lifecycle.
 *
 * The service calls exactly one thing per frame, from
 * LivePhaseService::shedEarly(): decide(tag). Everything else —
 * sampling, budget math, token refill — happens on the controller's
 * cadence. See DESIGN.md §15.
 */

#ifndef LIVEPHASE_ADMISSION_ADMISSION_HH
#define LIVEPHASE_ADMISSION_ADMISSION_HH

#include <memory>
#include <string>
#include <vector>

#include "admission/ratekeeper.hh"
#include "admission/tag_throttler.hh"

namespace livephase::admission
{

struct AdmissionConfig
{
    /** Master switch; a disabled config costs the service nothing
     *  (no controller thread, no decide() per frame). */
    bool enabled = false;

    RatekeeperConfig controller{};

    /** Tenant policies; parseQosSpec assigns wire tags 1..N in
     *  spec order. An empty list still throttles — everything lands
     *  in the untagged bucket under the global budget. */
    std::vector<TagPolicy> tags;
};

/**
 * Parse a `--qos` spec into `out.tags` (appending; enabled is left
 * to the caller):
 *
 *     tag=interactive:prio=0:share=0.6:deadline_ms=50,tag=bulk:prio=1:share=0.4
 *
 * Fields after the leading tag=NAME may appear in any order:
 *   prio        0/interactive or 1/bulk       (default bulk)
 *   share       relative weight, > 0          (default 1.0)
 *   deadline_ms early-drop queue-wait target  (default off)
 *
 * Wire tags are assigned 1..N in spec order. Returns false (with
 * `*error` filled when non-null) on malformed input, duplicate
 * names, or more tags than TagThrottler::MAX_TAGS - 1.
 */
bool parseQosSpec(const std::string &spec, AdmissionConfig &out,
                  std::string *error = nullptr);

/** Wire tag for a policy name in `config.tags`; 0 when absent. */
TenantTag tagForName(const AdmissionConfig &config,
                     const std::string &name);

class AdmissionControl
{
  public:
    /** @param clock test hook forwarded to both the Ratekeeper and
     *  the TagThrottler's token accrual. */
    AdmissionControl(const AdmissionConfig &config, Signals signals,
                     Ratekeeper::Clock clock = {});

    /** Admit or shed one request (transport threads; alloc-free). */
    Decision decide(TenantTag tag)
    {
        return tags.decide(tag, keeper.estimatedWaitMs());
    }

    /** Observed enqueue→dequeue wait, per tag (worker threads). */
    void recordQueueWait(TenantTag tag, double wait_ms)
    {
        tags.recordQueueWait(tag, wait_ms);
    }

    /** One manual controller tick (tests, benches, period 0). */
    void sampleNow() { keeper.sampleOnce(); }

    /** Start/stop the controller thread (no-ops at period 0). */
    void start() { keeper.start(); }
    void stop() { keeper.stop(); }

    Ratekeeper &ratekeeper() { return keeper; }
    TagThrottler &throttler() { return tags; }

    /** Per-tag table for `livephase stats`. */
    std::vector<TagSnapshotRow> tagTable() const
    {
        return tags.snapshot();
    }

  private:
    TagThrottler tags;
    Ratekeeper keeper;
};

} // namespace livephase::admission

#endif // LIVEPHASE_ADMISSION_ADMISSION_HH
