#!/usr/bin/env python3
"""End-to-end crash-resume tests for eric_fleetd's durable state.

Drives the REAL binary through two acceptance scenarios:

Plain campaign:
  1. start a campaign with --state-dir over a stretched channel
  2. kill -9 the daemon once at least one target outcome is durably
     checkpointed (counted by parsing campaign.wal's record frames) and
     at least one target remains
  3. restart with --resume and assert the campaign completes with no
     device delivered twice and no enrolled device lost

Key-epoch rotation:
  1. enroll a durable fleet and complete a plain campaign
  2. start --rotate-epoch over a stretched channel, kill -9 mid-rotation
  3. restart with --resume --rotate-epoch and assert the rotation
     finishes exactly once at the journaled epoch, every remaining
     target sealed under the NEW epoch (the members' HDEs were rotated
     by WAL replay, so a stale-epoch package could not have succeeded)
  4. a follow-up rotation advances exactly one epoch further, proving
     the journal considered the first rotation over

Delta campaign:
  1. deploy release v1 to a durable fleet (every active slot holds v1)
  2. start the v2 --delta campaign, kill -9 mid-campaign
  3. restart with --resume --delta and assert exactly-once completion
     and that EVERY device's active slot reads v2 (manifest_current in
     the JSON). Device base images live in durable slot manifests, so
     the restarted daemon patches remaining targets with REAL deltas: at
     most one device (the one in the kill window whose slot had already
     advanced to v2) ships a full package instead, and at most one rolls
     through the delta fallback — never the whole fleet.

Listen-mode campaign:
  1. start a --listen campaign: the daemon serves dispatches over real
     loopback sockets to an in-process simulated device fleet, one
     framed connection per device
  2. kill -9 mid-campaign (sockets die with the process; no shutdown
     handshake ran) and restart with --resume --listen
  3. the restarted daemon re-binds, the sim fleet re-handshakes, and
     the campaign completes the remaining targets exactly once — the
     durable checkpoint story is transport-independent

Chaos soak:
  1. start the seeded short-profile --soak (enroll/revoke churn,
     concurrent rotation + delta campaigns, channel faults, agent
     crash-mid-apply), kill -9 once every device has a durable slot
     manifest and the harness is mid-storm
  2. rerun the same soak over the surviving state dir and assert it
     converges: exit 0, "soak: PASS", zero invariant violations in the
     JSON report
  3. parse every agent slot manifest (magic, device id, zlib CRC32
     framing, record layout) and assert no device is torn (image bytes
     match their recorded CRC) or mid-apply (phase idle) — the A/B
     agent's crash-safety, proven from outside the process

Watchdog pause:
  1. start a campaign whose channel corrupts every delivery, with an
     --slo failure-ratio watchdog (pause policy) evaluating every 100ms
  2. wait for the watchdog record (type 6) to land durably in
     campaign.wal — proof the breach paused a LIVE campaign — then
     kill -9 the stalled daemon
  3. restart with --resume and assert it refuses (exit 3) with a
     watchdog report naming the breached SLO, without dispatching a
     single target
  4. restart with --resume --ack-watchdog over a clean channel and
     assert the campaign completes the remaining targets exactly once

Telemetry export:
  1. run the plain-campaign crash scenario with --metrics-out: every
     snapshot observed while the daemon runs must be complete, schema-
     tagged JSON (the write is atomic, so a poller never sees a torn
     document), including the one that survives the kill -9
  2. resume with --metrics-out to a fresh file and assert the final
     snapshot's counters agree exactly with the resumed run's report
     (deliveries, retries, successes — the exactly-once arithmetic,
     read back from the metrics registry instead of the report), its
     latency histograms cover delivery/seal/WAL stages with ordered
     percentiles, and the report's embedded "telemetry" section agrees

Mixed-ISA campaign:
  1. enroll a heterogeneous fleet (--rv32-every: every K-th device is
     RV32I silicon), start a campaign, kill -9 mid-flight
  2. restart with --resume and assert exactly-once completion with the
     per-ISA arithmetic intact: the resumed run's by_isa slices
     partition its targets, every slice fully succeeds (a success is
     only possible with an own-ISA image — the HDE refuses foreign
     encodings), each active ISA compiled exactly once, and every
     device's durable manifest advanced to the campaign version

Exactly-once is checked from the resume run's JSON: previously
checkpointed targets plus this run's dispatched targets must partition
the target set, and the resumed run must only have dispatched the
complement (deliveries == remaining targets).

All waiting is done by polling observable state (journal record counts,
process liveness) — no fixed sleeps around the SIGKILL window — and the
work dir is cleaned up even when the daemon dies early or outlives an
attempt.

Usage: fleetd_resume_test.py /path/to/eric_fleetd
"""

import json
import os
import shutil
import signal
import struct
import subprocess
import sys
import tempfile
import time
import zlib

DEVICES = 16
GROUPS = 2
# Stretch each delivery so the kill window is wide even on a fast box.
LATENCY_US = 50000
POLL_S = 0.02
DEADLINE_S = 120

WAL_HEADER_SIZE = 8 + 8     # "ERICWAL1" magic + u64 fingerprint
# Outcome record types: 2 = pre-delta {device, kind, attempts}, 5 = with
# the delivery form appended. Both count as a durable checkpoint.
OUTCOME_RECORD_TYPES = (2, 5)
# Health-watchdog stop record (breach paused/aborted the campaign).
WATCHDOG_RECORD_TYPE = 6

TINY_PROGRAM = """
fn main() {
  var sum = 0;
  var i = 1;
  while (i <= 10) { sum = sum + i * i; i = i + 1; }
  return sum;
}
"""


def fail(message):
    print("FAIL: " + message)
    sys.exit(1)


def count_records(journal_path, types):
    """Counts durably framed records of the given types in a campaign.wal.

    Parses the WAL frame layout (u32 payload_len | u8 type | u32 crc |
    payload) rather than assuming record sizes, so the count stays right
    across record-format changes (e.g. rotation begin records). A torn
    tail or a file that is still growing simply ends the scan."""
    try:
        with open(journal_path, "rb") as f:
            data = f.read()
    except OSError:
        return 0
    matches = 0
    pos = WAL_HEADER_SIZE
    while pos + 9 <= len(data):
        (length,) = struct.unpack_from("<I", data, pos)
        rec_type = data[pos + 4]
        end = pos + 9 + length
        if end > len(data):
            break  # torn / still-being-written tail
        if rec_type in types:
            matches += 1
        pos = end
    return matches


def count_outcome_records(journal_path):
    return count_records(journal_path, OUTCOME_RECORD_TYPES)


def validate_snapshot(path, label, require=False):
    """Loads a metrics snapshot, failing the test on a torn or
    schema-less document. A missing file is only an error under
    `require` (the exporter may not have ticked yet)."""
    try:
        with open(path) as f:
            text = f.read()
    except OSError:
        if require:
            fail("%s: no metrics snapshot at %s" % (label, path))
        return None
    try:
        snap = json.loads(text)
    except ValueError:
        fail("%s: torn/unparseable metrics snapshot (atomic write "
             "violated): %r" % (label, text[:120]))
    if snap.get("schema") != "eric.metrics.v1":
        fail("%s: snapshot schema is %r" % (label, snap.get("schema")))
    return snap


def run_until_killed(command, journal, min_outcomes, max_outcomes,
                     metrics=None):
    """Starts `command`, kill -9s it once the journal holds at least
    `min_outcomes` (and at most `max_outcomes`) outcome records.

    Returns the outcome count at the kill, or None when the process
    finished before the window was hit (caller retries). The process is
    always reaped — including on unexpected exceptions — so temp-dir
    cleanup never races a live daemon. With `metrics`, every poll also
    reads that snapshot path: a live exporter must never be caught
    publishing a torn document."""
    proc = subprocess.Popen(command, stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL)
    try:
        deadline = time.time() + DEADLINE_S
        # The journal may still hold a *previous* completed campaign's
        # records until this run's Begin truncates it — ignore counts
        # until we have seen the file at or below the window once.
        seen_reset = False
        while time.time() < deadline:
            if proc.poll() is not None:
                return None  # finished before we killed it
            if metrics is not None:
                validate_snapshot(metrics, "mid-campaign snapshot")
            outcomes = count_outcome_records(journal)
            if outcomes > max_outcomes:
                if seen_reset:
                    return None  # window missed; let it finish and retry
                time.sleep(POLL_S)
                continue
            seen_reset = True
            if outcomes >= min_outcomes:
                proc.send_signal(signal.SIGKILL)
                proc.wait()
                return outcomes
            time.sleep(POLL_S)
        fail("daemon made no checkpoint progress within %ds" % DEADLINE_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


def run_json(command, json_path, label):
    result = subprocess.run(command, stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT, text=True,
                            timeout=DEADLINE_S)
    if result.returncode != 0:
        fail("%s exited %d:\n%s" % (label, result.returncode, result.stdout))
    with open(json_path) as f:
        return json.load(f)


def check_resume_report(report, targets, label, max_deliveries_per_target=1):
    """The exactly-once arithmetic shared by every scenario.

    A delta resume legitimately performs up to two deliveries per target
    (the failed-closed patch plus the full-package fallback), so the
    delivery bound is per-scenario; the target arithmetic is not."""
    if not report["resumed"]:
        fail("%s did not report resumed=true" % label)
    if report["fleet_devices"] != DEVICES:
        fail("%s: recovered fleet has %d devices, enrolled %d" %
             (label, report["fleet_devices"], DEVICES))
    if report["original_targets"] != targets:
        fail("%s: journal lost targets: %d of %d" %
             (label, report["original_targets"], targets))
    prior = report["previously_completed"]
    if prior < 1:
        fail("%s: kill landed before any checkpoint (prior=%d)" %
             (label, prior))
    if prior + report["devices"] != targets:
        fail("%s: checkpointed %d + resumed %d != targets %d" %
             (label, prior, report["devices"], targets))
    if not (report["devices"] <= report["deliveries"]
            <= max_deliveries_per_target * report["devices"]):
        fail("%s: resumed run delivered %d times for %d targets" %
             (label, report["deliveries"], report["devices"]))
    if report["succeeded"] != report["devices"]:
        fail("%s: resumed run: %d of %d targets succeeded" %
             (label, report["succeeded"], report["devices"]))
    return prior


def plain_attempt(fleetd, workdir, attempt):
    state_dir = os.path.join(workdir, "state-%d" % attempt)
    source = os.path.join(workdir, "tiny.eric")
    with open(source, "w") as f:
        f.write(TINY_PROGRAM)
    journal = os.path.join(state_dir, "campaign.wal")
    json_out = os.path.join(workdir, "resume-%d.json" % attempt)

    base = [
        fleetd, "--devices", str(DEVICES), "--groups", str(GROUPS),
        "--source", source, "--state-dir", state_dir,
    ]
    killed_at = run_until_killed(
        base + ["--workers", "1", "--latency-us", str(LATENCY_US)],
        journal, min_outcomes=2, max_outcomes=DEVICES - 2)
    if killed_at is None:
        return None  # campaign outran the kill; caller retries

    report = run_json(base + ["--workers", "2", "--resume",
                              "--json", json_out],
                      json_out, "resume run")
    prior = check_resume_report(report, DEVICES, "resume run")

    # And the journal agrees the campaign is over: a second --resume finds
    # nothing to continue (it starts a fresh campaign instead of replaying
    # or double-delivering the finished one).
    idle_report = run_json(base + ["--resume", "--json", json_out + ".idle"],
                           json_out + ".idle", "post-completion resume")
    if idle_report["resumed"] or idle_report["previously_completed"] != 0:
        fail("completed campaign still resumable: %s" % idle_report)
    return prior


def listen_attempt(fleetd, workdir, attempt):
    state_dir = os.path.join(workdir, "listen-state-%d" % attempt)
    source = os.path.join(workdir, "tiny.eric")
    with open(source, "w") as f:
        f.write(TINY_PROGRAM)
    journal = os.path.join(state_dir, "campaign.wal")
    json_out = os.path.join(workdir, "listen-resume-%d.json" % attempt)

    # --listen 0 binds an ephemeral port each run, so the restarted
    # daemon never races the killed one's lingering socket. The
    # transport is not part of the campaign fingerprint (it shapes the
    # delivery path, never the bytes), so the resume matches.
    base = [
        fleetd, "--devices", str(DEVICES), "--groups", str(GROUPS),
        "--source", source, "--state-dir", state_dir, "--listen", "0",
    ]
    killed_at = run_until_killed(
        base + ["--workers", "1", "--latency-us", str(LATENCY_US)],
        journal, min_outcomes=2, max_outcomes=DEVICES - 2)
    if killed_at is None:
        return None  # campaign outran the kill; caller retries

    report = run_json(base + ["--workers", "2", "--resume",
                              "--json", json_out],
                      json_out, "listen resume")
    return check_resume_report(report, DEVICES, "listen resume")


def metrics_attempt(fleetd, workdir, attempt):
    state_dir = os.path.join(workdir, "metrics-state-%d" % attempt)
    source = os.path.join(workdir, "tiny.eric")
    with open(source, "w") as f:
        f.write(TINY_PROGRAM)
    journal = os.path.join(state_dir, "campaign.wal")
    live_metrics = os.path.join(workdir, "metrics-live-%d.json" % attempt)
    final_metrics = os.path.join(workdir, "metrics-final-%d.json" % attempt)
    json_out = os.path.join(workdir, "metrics-resume-%d.json" % attempt)

    base = [
        fleetd, "--devices", str(DEVICES), "--groups", str(GROUPS),
        "--source", source, "--state-dir", state_dir,
    ]
    telemetry = ["--metrics-out", live_metrics, "--metrics-interval", "0.05"]
    killed_at = run_until_killed(
        base + telemetry + ["--workers", "1",
                            "--latency-us", str(LATENCY_US)],
        journal, min_outcomes=2, max_outcomes=DEVICES - 2,
        metrics=live_metrics)
    if killed_at is None:
        return None  # campaign outran the kill; caller retries

    # The snapshot that survives the kill -9 is a complete document (the
    # exporter had ticked by the time the first outcome checkpointed).
    validate_snapshot(live_metrics, "post-kill snapshot", require=True)

    report = run_json(base + ["--workers", "2", "--resume",
                              "--metrics-out", final_metrics,
                              "--metrics-interval", "0.05",
                              "--json", json_out],
                      json_out, "metrics resume")
    prior = check_resume_report(report, DEVICES, "metrics resume")

    # The final snapshot (the exporter's shutdown flush) must agree with
    # the resumed run's report: the registry saw exactly the deliveries
    # the exactly-once machinery admitted, no more.
    final = validate_snapshot(final_metrics, "final snapshot", require=True)
    expected_counters = {
        "fleet_campaigns": 1,
        "fleet_deliveries": report["deliveries"],
        "fleet_retries": report["retries"],
        "fleet_targets_succeeded": report["succeeded"],
        "fleet_targets_failed": report["failed"],
    }
    for name, want in expected_counters.items():
        got = final["counters"].get(name)
        if got != want:
            fail("final snapshot %s=%s, report says %s" % (name, got, want))

    # Latency histograms cover the delivery, seal, and WAL stages, with
    # coherent percentiles and exact bucket accounting.
    for name in ("fleet_delivery_us", "fleet_seal_us",
                 "store_wal_append_us", "store_wal_fsync_us"):
        hist = final["histograms"].get(name)
        if not hist or hist["count"] < 1:
            fail("final snapshot lacks samples in histogram %s" % name)
        if not (0 <= hist["p50_us"] <= hist["p95_us"] <= hist["p99_us"]
                <= hist["max_us"] + 1e-9):
            fail("%s percentiles out of order: %s" % (name, hist))
        if sum(count for _, count in hist["buckets"]) != hist["count"]:
            fail("%s bucket counts do not sum to count: %s" % (name, hist))
    if final["histograms"]["fleet_delivery_us"]["count"] != \
            report["deliveries"]:
        fail("fleet_delivery_us saw %d samples, report delivered %d times" %
             (final["histograms"]["fleet_delivery_us"]["count"],
              report["deliveries"]))

    # The campaign report embeds the same registry under "telemetry".
    telemetry_section = report.get("telemetry")
    if not telemetry_section or \
            telemetry_section.get("schema") != "eric.metrics.v1":
        fail("campaign JSON carries no telemetry section: %r"
             % type(telemetry_section))
    if telemetry_section["counters"]["fleet_deliveries"] != \
            report["deliveries"]:
        fail("embedded telemetry disagrees with the report: %s != %s" %
             (telemetry_section["counters"]["fleet_deliveries"],
              report["deliveries"]))
    return prior


# Every third device is RV32I silicon: 16 devices -> 5 rv32, 11 rv64,
# spread across both groups so each group seals per-ISA artifacts.
RV32_EVERY = 3


def mixed_isa_attempt(fleetd, workdir, attempt):
    state_dir = os.path.join(workdir, "isa-state-%d" % attempt)
    source = os.path.join(workdir, "tiny.eric")
    with open(source, "w") as f:
        f.write(TINY_PROGRAM)
    journal = os.path.join(state_dir, "campaign.wal")
    json_out = os.path.join(workdir, "isa-resume-%d.json" % attempt)

    # --rv32-every shapes the initial enrollment only; on the resume it
    # is ignored (the recovered registry already knows each device's
    # silicon), so repeating it in `base` is deliberate — the same
    # command line must work on both sides of the crash.
    base = [
        fleetd, "--devices", str(DEVICES), "--groups", str(GROUPS),
        "--rv32-every", str(RV32_EVERY),
        "--source", source, "--state-dir", state_dir,
    ]
    killed_at = run_until_killed(
        base + ["--workers", "1", "--latency-us", str(LATENCY_US)],
        journal, min_outcomes=2, max_outcomes=DEVICES - 2)
    if killed_at is None:
        return None  # campaign outran the kill; caller retries

    report = run_json(base + ["--workers", "2", "--resume",
                              "--json", json_out],
                      json_out, "mixed-isa resume")
    prior = check_resume_report(report, DEVICES, "mixed-isa resume")

    # The per-ISA arithmetic of the resumed run. The kill window decides
    # which ISAs remain, so slices may be missing — but the ones present
    # must partition the resumed targets and fully succeed. A success is
    # only possible with an own-ISA image (the recovered registry
    # replayed each device's ISA from the WAL, and the HDE fails closed
    # on foreign encodings), so this is the heterogeneity proof.
    by_isa = report.get("by_isa")
    if not by_isa:
        fail("mixed-isa resume JSON carries no by_isa section")
    if not set(by_isa) <= {"rv64gc", "rv32i"}:
        fail("by_isa names unknown ISAs: %s" % sorted(by_isa))
    if sum(s["targets"] for s in by_isa.values()) != report["devices"]:
        fail("by_isa targets do not partition the resumed targets: %s"
             % by_isa)
    if sum(s["succeeded"] for s in by_isa.values()) != report["succeeded"]:
        fail("by_isa successes disagree with the report: %s" % by_isa)
    for name, slice_stats in sorted(by_isa.items()):
        if slice_stats["succeeded"] != slice_stats["targets"]:
            fail("%s: %d of %d targets succeeded on the resumed run" %
                 (name, slice_stats["succeeded"], slice_stats["targets"]))
        if slice_stats["compile_builds"] != 1:
            fail("%s: resumed run compiled %d times, want exactly once" %
                 (name, slice_stats["compile_builds"]))
    # Every device's durable manifest reads the campaign version —
    # recorded under its own ISA (the store tests prove the field; here
    # the count proves no device was skipped or double-advanced).
    if report["manifest_current"] != DEVICES:
        fail("mixed-isa resume left %d of %d manifests current" %
             (report["manifest_current"], DEVICES))
    return prior


def rotation_attempt(fleetd, workdir, attempt):
    state_dir = os.path.join(workdir, "rot-state-%d" % attempt)
    source = os.path.join(workdir, "tiny.eric")
    with open(source, "w") as f:
        f.write(TINY_PROGRAM)
    journal = os.path.join(state_dir, "campaign.wal")
    members = DEVICES // GROUPS  # rotation targets group 1 only

    base = [
        fleetd, "--devices", str(DEVICES), "--groups", str(GROUPS),
        "--source", source, "--state-dir", state_dir,
    ]
    # Enroll the durable fleet with a completed plain campaign.
    enroll_json = os.path.join(workdir, "rot-enroll-%d.json" % attempt)
    run_json(base + ["--workers", "4", "--json", enroll_json],
             enroll_json, "rotation fleet enrollment")

    # Rotate group 1 over the stretched channel, kill -9 mid-rotation.
    killed_at = run_until_killed(
        base + ["--rotate-epoch", "1", "--workers", "1",
                "--latency-us", str(LATENCY_US)],
        journal, min_outcomes=1, max_outcomes=members - 2)
    if killed_at is None:
        return None

    json_out = os.path.join(workdir, "rot-resume-%d.json" % attempt)
    report = run_json(base + ["--rotate-epoch", "1", "--workers", "2",
                              "--resume", "--json", json_out],
                      json_out, "rotation resume")
    prior = check_resume_report(report, members, "rotation resume")
    rotation = report.get("rotation")
    if not rotation:
        fail("rotation resume JSON carries no rotation report")
    # The resume finished the SAME rotation: epoch 0 -> 1, applied
    # idempotently (the bump was already durable when the first outcome
    # checkpointed, so the resume must not have re-bumped).
    if rotation["new_epoch"] != 1:
        fail("rotation resumed to epoch %d, journaled target was 1" %
             rotation["new_epoch"])
    if rotation["bumped"]:
        fail("resume re-bumped an epoch that was already durable")
    # Every resumed target succeeded (checked above) — and a success is
    # only possible with a new-epoch package: WAL replay rotated the
    # member HDEs to epoch 1 before the resume sealed a single byte, and
    # a rotated HDE rejects stale-epoch packages by construction.

    # A fresh rotation now advances exactly one epoch further — the
    # journal considers the interrupted rotation complete.
    next_json = os.path.join(workdir, "rot-next-%d.json" % attempt)
    next_report = run_json(base + ["--rotate-epoch", "1",
                                   "--json", next_json],
                           next_json, "follow-up rotation")
    next_rotation = next_report["rotation"]
    if next_report["resumed"] or next_rotation["old_epoch"] != 1 or \
            next_rotation["new_epoch"] != 2:
        fail("follow-up rotation went %d -> %d (resumed=%s); completed "
             "rotation still resumable?" %
             (next_rotation["old_epoch"], next_rotation["new_epoch"],
              next_report["resumed"]))
    return prior


def make_release(rounds):
    """A multi-KB release whose versions differ by one loop bound — big
    enough that patches beat full packages (the Python mirror of
    workloads::MakeSyntheticRelease)."""
    src = ""
    for f in range(10):
        src += ("fn stage{f}(x) {{\n  var acc = x + {a};\n  var i = 0;\n"
                "  while (i < {b}) {{\n"
                "    acc = (acc * {c} + i) & 0xFFFFFF;\n"
                "    i = i + 1;\n  }}\n  return acc;\n}}\n").format(
                    f=f, a=1000 + f * 37, b=8 + f, c=29 + 2 * f)
    src += "fn main() {\n  var r = 7;\n  var round = 0;\n"
    src += "  while (round < %d) {\n" % rounds
    for f in range(10):
        src += "    r = stage%d(r);\n" % f
    src += "    round = round + 1;\n  }\n  return r % 100000;\n}\n"
    return src


def delta_attempt(fleetd, workdir, attempt):
    state_dir = os.path.join(workdir, "delta-state-%d" % attempt)
    v1 = os.path.join(workdir, "v1.eric")
    v2 = os.path.join(workdir, "v2.eric")
    with open(v1, "w") as f:
        f.write(make_release(3))
    with open(v2, "w") as f:
        f.write(make_release(5))
    journal = os.path.join(state_dir, "campaign.wal")

    base = [fleetd, "--devices", str(DEVICES), "--groups", str(GROUPS),
            "--state-dir", state_dir]
    # Release v1 lands everywhere; every manifest durably reads v1.
    v1_json = os.path.join(workdir, "delta-v1-%d.json" % attempt)
    v1_report = run_json(base + ["--source", v1, "--workers", "4",
                                 "--json", v1_json],
                         v1_json, "delta v1 deployment")
    if v1_report["manifest_current"] != DEVICES:
        fail("v1 deployment left %d of %d manifests at v1" %
             (v1_report["manifest_current"], DEVICES))

    # The v2 delta campaign, killed mid-flight.
    delta_flags = ["--source", v2, "--delta", "--base-source", v1]
    killed_at = run_until_killed(
        base + delta_flags + ["--workers", "1",
                              "--latency-us", str(LATENCY_US)],
        journal, min_outcomes=2, max_outcomes=DEVICES - 2)
    if killed_at is None:
        return None

    json_out = os.path.join(workdir, "delta-resume-%d.json" % attempt)
    report = run_json(base + delta_flags + ["--workers", "2", "--resume",
                                            "--json", json_out],
                      json_out, "delta resume")
    prior = check_resume_report(report, DEVICES, "delta resume",
                                max_deliveries_per_target=2)
    if not report["delta"]:
        fail("delta resume lost the --delta flag in its report")
    # THE manifest property: after the resume, every device's durable
    # active slot reads v2 — the fleet agrees with itself about what runs
    # where, which is what the next delta campaign will diff against.
    if report["manifest_current"] != DEVICES:
        fail("delta resume left %d of %d manifests at v2" %
             (report["manifest_current"], DEVICES))
    # Delta bases are durable (agent slot manifests): the restarted
    # daemon patches the remaining targets with real deltas. The killed
    # run had one worker, so at most ONE device sits in the kill window
    # with its active slot already at v2 (the agent commits before the
    # outcome checkpoint) — that device ships one full package without
    # attempting a patch; and at most one device whose apply the kill
    # interrupted can roll back through the fallback.
    if report["delta_fallbacks"] > 1:
        fail("delta resume: %d fallbacks; durable bases should patch "
             "cleanly" % report["delta_fallbacks"])
    if report["delta_deliveries"] < report["devices"] - 1:
        fail("delta resume shipped only %d deltas for %d targets: "
             "restart lost the durable bases" %
             (report["delta_deliveries"], report["devices"]))
    return prior


WATCHDOG_SLO = ("ratio(fleet_delivery_failures,fleet_delivery_attempts)"
                "<0.05@10s:pause;min=3")
WATCHDOG_SLO_NAME = "fleet_delivery_failures_ratio"


def watchdog_attempt(fleetd, workdir, attempt):
    state_dir = os.path.join(workdir, "wd-state-%d" % attempt)
    source = os.path.join(workdir, "tiny.eric")
    with open(source, "w") as f:
        f.write(TINY_PROGRAM)
    journal = os.path.join(state_dir, "campaign.wal")

    # The channel shape is part of the campaign fingerprint, so every
    # invocation below — including the resumes — repeats it. Every
    # delivery is corrupted: the failure ratio pins at 1.0 and the
    # pause-policy SLO breaches as soon as min=3 attempts are in the
    # window. The paused daemon then just sits on the dispatch gate.
    base = [
        fleetd, "--devices", str(DEVICES), "--groups", str(GROUPS),
        "--source", source, "--state-dir", state_dir,
        "--latency-us", str(LATENCY_US), "--attempts", "1",
        "--fault", "bitflips", "--fault-rate", "1.0",
    ]
    faulty = base + [
        "--workers", "1",
        "--slo", WATCHDOG_SLO, "--slo-interval", "0.1",
    ]
    proc = subprocess.Popen(faulty, stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL)
    try:
        deadline = time.time() + DEADLINE_S
        stalled = False
        while time.time() < deadline:
            if proc.poll() is not None:
                # The campaign outran the watchdog (it should not: the
                # ratio breaches within the first few deliveries).
                return None
            if count_records(journal, (WATCHDOG_RECORD_TYPE,)) >= 1 and \
                    count_outcome_records(journal) >= 1:
                # The breach is durable and at least one target outcome
                # checkpointed around the pause. Cut the power on the
                # stalled daemon.
                proc.send_signal(signal.SIGKILL)
                proc.wait()
                stalled = True
                break
            time.sleep(POLL_S)
        if not stalled:
            fail("watchdog never journaled a breach within %ds" % DEADLINE_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()

    # A bare --resume must refuse: exit 3, a watchdog report naming the
    # breached SLO, and not a single dispatched target.
    refused_json = os.path.join(workdir, "wd-refused-%d.json" % attempt)
    refused = subprocess.run(base + ["--resume", "--json", refused_json],
                             stdout=subprocess.PIPE,
                             stderr=subprocess.STDOUT, text=True,
                             timeout=DEADLINE_S)
    if refused.returncode != 3:
        fail("resume of a watchdog-paused campaign exited %d, want 3:\n%s" %
             (refused.returncode, refused.stdout))
    with open(refused_json) as f:
        gate = json.load(f)
    if not gate.get("watchdog_stopped") or gate.get("watchdog_aborted"):
        fail("watchdog gate report wrong: %s" % gate)
    if gate["slo"] != WATCHDOG_SLO_NAME:
        fail("gate names SLO %r, want %r" % (gate["slo"], WATCHDOG_SLO_NAME))
    if gate["observed"] <= gate["threshold"]:
        fail("gate replayed a non-breach: observed %s <= threshold %s" %
             (gate["observed"], gate["threshold"]))
    if gate["original_targets"] != DEVICES or gate["remaining"] < 1:
        fail("gate arithmetic wrong: %s" % gate)
    # previously_completed is every checkpointed outcome; on the all-
    # corrupting channel each of them is a failure.
    prior = gate["previously_completed"]
    if gate["previously_failed"] != prior:
        fail("faulty channel checkpointed a success? %s" % gate)
    if prior + gate["remaining"] != DEVICES:
        fail("gate remaining does not partition the target set: %s" % gate)
    if count_records(journal, (WATCHDOG_RECORD_TYPE,)) < 1:
        fail("refused resume consumed the durable watchdog record")

    # Acknowledged resume completes the remaining targets exactly once.
    # The channel is still all-corrupting (it is fingerprinted into the
    # campaign identity), so every resumed target fails and the daemon
    # exits 1 — but it RAN them, which is the point of the ack.
    acked_json = os.path.join(workdir, "wd-acked-%d.json" % attempt)
    acked = subprocess.run(base + ["--resume", "--ack-watchdog",
                                   "--workers", "2", "--json", acked_json],
                           stdout=subprocess.PIPE,
                           stderr=subprocess.STDOUT, text=True,
                           timeout=DEADLINE_S)
    if acked.returncode != 1:
        fail("acked resume over the faulty channel exited %d, want 1 "
             "(all targets fail):\n%s" % (acked.returncode, acked.stdout))
    with open(acked_json) as f:
        report = json.load(f)
    if not report["resumed"]:
        fail("acknowledged resume did not report resumed=true")
    if report["previously_completed"] != prior:
        fail("acknowledged resume sees %d prior outcomes, gate saw %d" %
             (report["previously_completed"], prior))
    if report["previously_completed"] + report["devices"] != DEVICES:
        fail("acknowledged resume re-ran checkpointed targets: %s" % report)
    if report["deliveries"] != report["devices"]:
        fail("acked resume delivered %d times for %d remaining targets" %
             (report["deliveries"], report["devices"]))
    if report["failed"] != report["devices"]:
        fail("all-corrupting channel: %d of %d targets failed" %
             (report["failed"], report["devices"]))
    return prior


# Agent slot-file framing (src/agent/update_agent.cpp). The file holds
# two copies of the record, copy 0 at offset 0 and copy 1 at offset
# `capacity` (half the file); each is a 36-byte header
#   "ERICSLT2" | u32 crc32 | u64 device | u64 sequence | u32 capacity
#   | u32 payload_len
# with the CRC over every header field after it and the payload, then the
# RecordWriter payload. The CRC-valid copy with the highest sequence is
# the record. Files from older builds hold one record behind a 24-byte
# header "ERICSLT1" | u64 device | u32 crc32(payload) | u32 payload_len.
# 0xFF encodes "no slot".
SLOT_MAGIC = b"ERICSLT2"
SLOT_HEADER = 36
LEGACY_SLOT_MAGIC = b"ERICSLT1"
LEGACY_SLOT_HEADER = 24
NO_SLOT = 0xFF
# Device count of the short soak profile (kSoakShort in
# src/fleet/daemon_config.h): the kill waits until every one of them has a
# durable slot manifest.
SOAK_SHORT_DEVICES = 10


def newest_slot_record(data, label):
    """Returns (device, payload) of the record a slot file holds: the
    CRC-valid copy with the highest sequence, or a legacy file's one
    record. Fails the test when there is none."""
    if data[:8] == LEGACY_SLOT_MAGIC and len(data) >= LEGACY_SLOT_HEADER:
        (device,) = struct.unpack_from("<Q", data, 8)
        crc, payload_len = struct.unpack_from("<II", data, 16)
        payload = data[LEGACY_SLOT_HEADER:]
        if len(payload) != payload_len:
            fail("%s: payload is %d bytes, header says %d" %
                 (label, len(payload), payload_len))
        if zlib.crc32(payload) & 0xFFFFFFFF != crc:
            fail("%s: payload CRC mismatch (torn manifest survived?)" % label)
        return device, payload
    capacity = len(data) // 2
    best = None
    for copy in range(2 if len(data) % 2 == 0 and capacity >= SLOT_HEADER
                      else 0):
        base = copy * capacity
        if data[base:base + 8] != SLOT_MAGIC:
            continue
        crc, device, sequence, copy_capacity, payload_len = \
            struct.unpack_from("<IQQII", data, base + 8)
        end = base + SLOT_HEADER + payload_len
        if copy_capacity != capacity or payload_len > capacity - SLOT_HEADER:
            continue
        if zlib.crc32(data[base + 12:end]) & 0xFFFFFFFF != crc:
            continue  # a torn copy: the other one stands
        if best is None or sequence > best[0]:
            best = (sequence, device, data[base + SLOT_HEADER:end])
    if best is None:
        fail("%s: no intact record copy (%d bytes; torn file survived?)" %
             (label, len(data)))
    return best[1], best[2]


def check_slot_manifest(path, device_id):
    """Parses one agent slot manifest from outside the process and fails
    the test on any violation of the A/B crash-safety contract: CRC
    framing, idle phase (nobody stays wedged mid-apply), and image bytes
    matching their recorded CRC (no torn slot)."""
    with open(path, "rb") as f:
        data = f.read()
    label = os.path.basename(path)
    header_dev, payload = newest_slot_record(data, label)
    if header_dev != device_id:
        fail("%s: header names device %d" % (label, header_dev))

    pos = 0
    (schema,) = struct.unpack_from("<I", payload, pos)
    pos += 4
    (payload_dev,) = struct.unpack_from("<Q", payload, pos)
    pos += 8
    active, previous, staged, phase = struct.unpack_from("<4B", payload, pos)
    pos += 4
    pos += 5 * 8  # counters: applies/rollbacks/health/crash/persist
    if schema != 1 or payload_dev != device_id:
        fail("%s: schema=%d payload device=%d" % (label, schema, payload_dev))
    if phase != 0 or staged != NO_SLOT:
        fail("%s: device left mid-apply (phase=%d staged=%d) after the "
             "soak's final sweep" % (label, phase, staged))
    present_slots = []
    for _ in range(2):
        (present,) = struct.unpack_from("<B", payload, pos)
        pos += 1
        pos += 8  # version
        (fp_len,) = struct.unpack_from("<I", payload, pos)
        pos += 4 + fp_len
        (image_crc,) = struct.unpack_from("<I", payload, pos)
        pos += 4
        (image_len,) = struct.unpack_from("<I", payload, pos)
        pos += 4
        image = payload[pos:pos + image_len]
        pos += image_len
        if len(image) != image_len:
            fail("%s: slot image overruns the payload" % label)
        if present and zlib.crc32(image) & 0xFFFFFFFF != image_crc:
            fail("%s: TORN IMAGE — slot bytes do not match their CRC" %
                 label)
        present_slots.append(bool(present))
    if pos != len(payload):
        fail("%s: %d bytes of trailing garbage" % (label, len(payload) - pos))
    if active != NO_SLOT and (active > 1 or not present_slots[active]):
        fail("%s: active slot %d absent or out of range" % (label, active))


def count_slot_manifests(agent_dir):
    try:
        names = os.listdir(agent_dir)
    except OSError:
        return 0
    return sum(1 for n in names
               if n.startswith("slots-") and n.endswith(".bin"))


def soak_attempt(fleetd, workdir, attempt):
    state_dir = os.path.join(workdir, "soak-state-%d" % attempt)
    agent_dir = os.path.join(state_dir, "agent")
    base = [fleetd, "--soak", "--soak-profile", "short",
            "--soak-seed", str(0x50A4 + attempt), "--state-dir", state_dir]

    proc = subprocess.Popen(base, stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL)
    try:
        deadline = time.time() + DEADLINE_S
        killed = False
        while time.time() < deadline:
            if proc.poll() is not None:
                return None  # soak outran the kill; caller retries
            if count_slot_manifests(agent_dir) >= SOAK_SHORT_DEVICES:
                # Every seed device has a durable slot manifest: the
                # storm is live. Cut the power.
                proc.send_signal(signal.SIGKILL)
                proc.wait()
                killed = True
                break
            time.sleep(POLL_S)
        if not killed:
            fail("soak produced no slot manifests within %ds" % DEADLINE_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()

    # The rerun inherits whatever the kill left — flipped-but-unproven
    # slots, a half-finished rotation, churned enrollments — and must
    # converge: recover every agent, run the full storm again, and
    # report zero invariant violations.
    json_out = os.path.join(workdir, "soak-rerun-%d.json" % attempt)
    report = run_json(base + ["--json", json_out], json_out, "soak rerun")
    if not report.get("pass") or report.get("violations"):
        fail("soak rerun over the killed state dir reported violations: %s"
             % report.get("violations"))

    # Outside-the-process proof: every slot manifest on disk parses
    # clean — no torn image, no device wedged mid-apply.
    parsed = 0
    for name in sorted(os.listdir(agent_dir)):
        if not (name.startswith("slots-") and name.endswith(".bin")):
            continue
        check_slot_manifest(os.path.join(agent_dir, name),
                            int(name[len("slots-"):-len(".bin")]))
        parsed += 1
    if parsed < SOAK_SHORT_DEVICES:
        fail("only %d slot manifests survived the soak (seeded %d)" %
             (parsed, SOAK_SHORT_DEVICES))
    return parsed


def soak_scenario(fleetd, workdir):
    for attempt in range(3):
        parsed = soak_attempt(fleetd, workdir, attempt)
        if parsed is not None:
            print("PASS (chaos soak): killed -9 mid-storm; rerun converged "
                  "with 0 violations; %d slot manifests parse clean "
                  "(no torn or mid-apply device)" % parsed)
            return
    fail("soak finished before kill -9 in 3 attempts "
         "(host too fast? short profile too small)")


def run_scenario(name, attempt_fn, fleetd, workdir, total):
    for attempt in range(3):
        prior = attempt_fn(fleetd, workdir, attempt)
        if prior is not None:
            print("PASS (%s): killed -9 after %d durable checkpoints; "
                  "resume completed the remaining %d targets exactly once" %
                  (name, prior, total - prior))
            return
    fail("%s finished before kill -9 in 3 attempts "
         "(host too fast? raise LATENCY_US)" % name)


def main():
    if len(sys.argv) != 2:
        fail("usage: fleetd_resume_test.py /path/to/eric_fleetd")
    fleetd = sys.argv[1]
    # Manual temp-dir management: cleanup must tolerate files a kill -9'd
    # daemon left behind (or a straggler still flushing on slow CI).
    workdir = tempfile.mkdtemp(prefix="eric-fleetd-resume-")
    try:
        run_scenario("plain campaign", plain_attempt, fleetd, workdir,
                     DEVICES)
        run_scenario("mixed-isa campaign", mixed_isa_attempt, fleetd,
                     workdir, DEVICES)
        run_scenario("watchdog pause", watchdog_attempt, fleetd, workdir,
                     DEVICES)
        run_scenario("listen-mode campaign", listen_attempt, fleetd,
                     workdir, DEVICES)
        run_scenario("telemetry export", metrics_attempt, fleetd, workdir,
                     DEVICES)
        run_scenario("epoch rotation", rotation_attempt, fleetd, workdir,
                     DEVICES // GROUPS)
        run_scenario("delta campaign", delta_attempt, fleetd, workdir,
                     DEVICES)
        soak_scenario(fleetd, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    main()
