// Package sched implements Phase 2 of the paper's methodology: a
// discrete-event, layer-granularity preemptive scheduling engine for a
// single time-shared accelerator (§4.2.2: "execution is performed in a
// per-layer or per-layer-block manner ... whenever the execution of one
// layer completes, the scheduler is invoked"), the scheduling metrics
// (ANTT, SLO violation rate, STP — §6.1), and the status-quo baseline
// schedulers the paper compares against (§6.1).
//
// # Determinism contracts
//
// Everything above this package (internal/cluster, internal/exp) depends
// on a simulation being a pure function of its inputs. The engine
// guarantees:
//
//   - Virtual-clock ordering. The engine clock advances only in Step,
//     one scheduling decision at a time; NextEvent never mutates state,
//     so an orchestrator can totally order N engines' events before
//     committing any of them. Requests must be injected before the
//     clock passes their arrival; a late injection delays delivery but
//     never rewrites history.
//   - Tie-break totality. Every scheduler's selection rule is a strict
//     lexicographic minimum (score, then task ID), so the pick is
//     independent of ready-queue iteration order — the queue itself
//     (swap-removal, heap internals) carries no semantic order.
//   - Pick-path equivalence. Schedulers implementing
//     IncrementalScheduler or ScalableScheduler must pick the identical
//     task the reference PickNext would, so Options.ScalablePick is a
//     pure performance flag. The equivalence tests in this package,
//     internal/core and internal/exp reach the reference path by hiding
//     the fast-path methods (struct{ Scheduler }{s}) and prove
//     bit-identical schedules.
//   - Extraction integrity. Engine.Extract / Engine.Adopt (request
//     migration) only move tasks that have executed no layer, through
//     the scheduler's TaskExtractor hook, so scheduler state and the
//     task's ground-truth accounting (TrueIsolated/TrueRemaining, kept
//     in reference units) stay exact across engines. A run with no
//     extractions is bit-identical to one on an engine without the
//     migration surfaces.
//
// These contracts are restated operationally in DESIGN.md §7 (hot-path
// architecture) and §9 (migration); the per-knob neutral-settings
// bit-identity rules live with internal/cluster and internal/exp.
package sched
