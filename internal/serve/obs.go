package serve

import (
	"repro/internal/obs"
)

// This file owns the scheduler's metric registry: every family the
// /metrics endpoint exposes is registered here (or in registerFleet /
// the session manager), and a scrape-time collector copies one
// consistent Stats() snapshot into the collector-fed instruments.
// Registration happens eagerly in NewScheduler — WritePrometheus
// snapshots the family set before running collectors, so a family
// created lazily inside a collector would miss its first scrape.

// counterDef / gaugeDef bind an exposition family to its field in the
// Stats snapshot.
type counterDef struct {
	name, help string
	get        func(*Stats) int64
}

type gaugeDef struct {
	name, help string
	get        func(*Stats) float64
}

// registerMetrics registers the scheduler's families into s.obs and
// installs the collector that feeds them at scrape time. Store families
// are registered only when a store is configured, mirroring the
// conditional exposition the hand-rolled /metrics had.
func (s *Scheduler) registerMetrics() {
	counters := []counterDef{
		{"satserved_jobs_submitted_total", "accepted job submissions", func(st *Stats) int64 { return st.Submitted }},
		{"satserved_jobs_completed_total", "jobs finished with a result", func(st *Stats) int64 { return st.Completed }},
		{"satserved_jobs_failed_total", "jobs finished in error", func(st *Stats) int64 { return st.Failed }},
		{"satserved_jobs_cancelled_total", "jobs cancelled before a result", func(st *Stats) int64 { return st.Cancelled }},
		{"satserved_jobs_shed_total", "submissions rejected by load shedding", func(st *Stats) int64 { return st.Shed }},
		{"satserved_solves_total", "jobs that reached an engine", func(st *Stats) int64 { return st.Solves }},
		{"satserved_cache_hits_total", "jobs served from the result cache", func(st *Stats) int64 { return st.CacheHits }},
		{"satserved_coalesced_total", "jobs served by singleflight coalescing", func(st *Stats) int64 { return st.Coalesced }},
		{"satserved_cache_evictions_total", "results dropped by the LRU at capacity", func(st *Stats) int64 { return st.CacheEvictions }},
		{"satserved_proof_jobs_total", "decided certified jobs", func(st *Stats) int64 { return st.ProofJobs }},
		{"satserved_proof_check_failures_total", "certificates rejected server-side", func(st *Stats) int64 { return st.ProofFailures }},
		{"satserved_audit_append_errors_total", "failed audit chain appends", func(st *Stats) int64 { return st.AuditAppendErrors }},
		{"satserved_sessions_opened_total", "sessions opened", func(st *Stats) int64 { return st.Sessions.Opened }},
		{"satserved_sessions_deleted_total", "sessions deleted", func(st *Stats) int64 { return st.Sessions.Deleted }},
		{"satserved_session_queries_total", "finished session queries", func(st *Stats) int64 { return st.Sessions.Queries }},
		{"satserved_session_evictions_total", "checkpoint-to-evict demotions", func(st *Stats) int64 { return st.Sessions.Evictions }},
		{"satserved_session_revivals_total", "checkpoint restores", func(st *Stats) int64 { return st.Sessions.Revivals }},
		{"satserved_session_sweeps_total", "level-0 sweeps run by session solvers between queries", func(st *Stats) int64 { return st.Sessions.Sweeps }},
		{"satserved_session_swept_clauses_total", "clauses session solvers dropped as satisfied at top level", func(st *Stats) int64 { return st.Sessions.SweptClauses }},
		{"satserved_session_retired_vars_total", "variables session solvers retired from branching", func(st *Stats) int64 { return st.Sessions.RetiredVars }},
	}
	gauges := []gaugeDef{
		{"satserved_queue_depth", "jobs waiting in the backlog", func(st *Stats) float64 { return float64(st.QueueDepth) }},
		{"satserved_running", "jobs currently executing", func(st *Stats) float64 { return float64(st.Running) }},
		{"satserved_followers", "live coalesced waiters", func(st *Stats) float64 { return float64(st.Followers) }},
		{"satserved_workers_in_use", "granted portfolio workers", func(st *Stats) float64 { return float64(st.WorkersInUse) }},
		{"satserved_cache_entries", "result cache population", func(st *Stats) float64 { return float64(st.CacheEntries) }},
		{"satserved_audit_records", "audit chain length", func(st *Stats) float64 { return float64(st.AuditRecords) }},
		{"satserved_audit_chain_valid", "1 when the boot-time chain verification passed", func(st *Stats) float64 {
			if st.AuditChainValid {
				return 1
			}
			return 0
		}},
		{"satserved_sessions", "live sessions", func(st *Stats) float64 { return float64(st.Sessions.Sessions) }},
		{"satserved_sessions_resident", "sessions holding a live solver", func(st *Stats) float64 { return float64(st.Sessions.Resident) }},
		{"satserved_sessions_checkpointed", "sessions demoted to checkpoint images", func(st *Stats) float64 { return float64(st.Sessions.Checkpointed) }},
		{"satserved_session_checkpoint_bytes", "total checkpoint image bytes", func(st *Stats) float64 { return float64(st.Sessions.CheckpointBytes) }},
		{"satserved_session_busy", "session queries currently executing", func(st *Stats) float64 { return float64(st.SessionBusy) }},
		{"satserved_session_live_clauses", "problem clauses live across session solvers", func(st *Stats) float64 { return float64(st.Sessions.LiveClauses) }},
		{"satserved_session_live_vars", "open variables across session solvers", func(st *Stats) float64 { return float64(st.Sessions.LiveVars) }},
	}
	if s.cfg.Store != nil {
		counters = append(counters,
			counterDef{"satserved_store_replay_skipped_total", "persisted records skipped during replay", func(st *Stats) int64 { return st.Store.ReplaySkipped }},
			counterDef{"satserved_store_writes_total", "write-behind records written", func(st *Stats) int64 { return st.Store.Writes }},
			counterDef{"satserved_store_dropped_total", "write-behind records dropped at capacity", func(st *Stats) int64 { return st.Store.Dropped }},
			counterDef{"satserved_store_errors_total", "store write errors", func(st *Stats) int64 { return st.Store.Errors }},
			counterDef{"satserved_store_compactions_total", "backend snapshot compactions", func(st *Stats) int64 { return st.Store.Backend.Compactions }},
			counterDef{"satserved_store_tail_truncations_total", "torn WAL tails truncated at open", func(st *Stats) int64 { return st.Store.Backend.TailTruncations }},
		)
		gauges = append(gauges,
			gaugeDef{"satserved_store_replayed_results", "cached results replayed at boot", func(st *Stats) float64 { return float64(st.Store.ReplayedResults) }},
			gaugeDef{"satserved_store_replayed_classes", "recipe classes replayed at boot", func(st *Stats) float64 { return float64(st.Store.ReplayedClasses) }},
			gaugeDef{"satserved_store_replayed_warm", "warm profiles replayed at boot", func(st *Stats) float64 { return float64(st.Store.ReplayedWarm) }},
			gaugeDef{"satserved_store_replay_seconds", "boot-time replay duration", func(st *Stats) float64 { return st.Store.Replay.Seconds() }},
			gaugeDef{"satserved_store_keys", "backend key count", func(st *Stats) float64 { return float64(st.Store.Backend.Keys) }},
			gaugeDef{"satserved_store_wal_records", "backend WAL record count", func(st *Stats) float64 { return float64(st.Store.Backend.WALRecords) }},
			gaugeDef{"satserved_store_wal_bytes", "backend WAL byte size", func(st *Stats) float64 { return float64(st.Store.Backend.WALBytes) }},
			gaugeDef{"satserved_store_snapshot_records", "backend snapshot record count", func(st *Stats) float64 { return float64(st.Store.Backend.SnapshotRecords) }},
			gaugeDef{"satserved_store_backend_replay_seconds", "backend WAL replay duration", func(st *Stats) float64 { return st.Store.Backend.Replay.Seconds() }},
		)
	}
	cs := make([]*obs.Counter, len(counters))
	for i, d := range counters {
		cs[i] = s.obs.Counter(d.name, d.help)
	}
	gs := make([]*obs.Gauge, len(gauges))
	for i, d := range gauges {
		gs[i] = s.obs.Gauge(d.name, d.help)
	}
	// Pre-register the latency families too: a scrape before the first
	// finished job should still show them (empty histograms).
	s.obs.Histogram(jobSecondsName, jobSecondsHelp, nil, obs.L("kind", string(KindDIMACS)))
	s.obs.Histogram(phaseSecondsName, phaseSecondsHelp, nil, obs.L("phase", "solve"))
	s.obs.AddCollector(func() {
		st := s.Stats()
		for i, d := range counters {
			cs[i].Set(d.get(&st))
		}
		for i, d := range gauges {
			gs[i].Set(d.get(&st))
		}
	})
}

// Latency histogram family names, shared with the SLO harness (whose
// report keys phase distributions by the trace span names these
// histograms mirror).
const (
	jobSecondsName   = "satserved_job_seconds"
	jobSecondsHelp   = "end-to-end job latency by kind (submit entry to finalize)"
	phaseSecondsName = "satserved_job_phase_seconds"
	phaseSecondsHelp = "per-phase latency attribution from the job trace"
)

// observeJob feeds a finalized job's trace into the latency histograms:
// one end-to-end observation per kind (with the job ID as exemplar, so
// a tail bucket links to a fetchable trace), one observation per
// top-level phase. Called exactly once per job, from finalize.
func (s *Scheduler) observeJob(j *Job) {
	v := j.trace.Snapshot()
	s.obs.Histogram(jobSecondsName, jobSecondsHelp, nil,
		obs.L("kind", string(j.spec.Kind))).ObserveEx(float64(v.DurUS)/1e6, j.ID)
	for name, us := range v.PhaseTotals() {
		s.obs.Histogram(phaseSecondsName, phaseSecondsHelp, nil,
			obs.L("phase", name)).Observe(float64(us) / 1e6)
	}
}

// registerFleet registers the fleet-routing families and their
// collector. Called by Server.SetFleet before serving starts.
func (s *Scheduler) registerFleet(f *Fleet) {
	members := s.obs.Gauge("satserved_fleet_members", "replicas in the routing ring")
	forwards := s.obs.Counter("satserved_fleet_forwards_total", "submissions forwarded to the owning peer")
	forwardErrs := s.obs.Counter("satserved_fleet_forward_errors_total", "failed peer forwards")
	fallbacks := s.obs.Counter("satserved_fleet_local_fallbacks_total", "forwards served locally after peer failure")
	s.obs.AddCollector(func() {
		fst := f.Stats()
		members.Set(float64(fst.Members))
		forwards.Set(fst.Forwards)
		forwardErrs.Set(fst.ForwardErrors)
		fallbacks.Set(fst.LocalFallbacks)
	})
}
