package main

import (
	"math"

	"mdkmc/internal/telemetry"
)

// layerMetrics lists every per-layer metric of a traced run with its unit,
// in BENCHMARK.json order. A workload reports 0 for a layer it does not
// exercise.
var layerMetrics = []struct{ name, unit string }{
	{"eam.pairs_per_step", "pairs"},
	{"eam.lookups_per_step", "lookups"},
	{"md.density_ms_per_step", "ms"},
	{"md.force_ms_per_step", "ms"},
	{"md.ns_per_pair", "ns"},
	{"md.relink_ms_per_step", "ms"},
	{"md.allocs_per_step", "allocs"},
	{"md.bytes_per_atom", "B"},
	{"md.imbalance", "max/mean"},
	{"md.ghost.pos_wait_ms_per_step", "ms"},
	{"md.ghost.rho_wait_ms_per_step", "ms"},
	{"md.ghost.pack_unpack_ms_per_step", "ms"},
	{"md.ghost.migrate_ms_per_step", "ms"},
	{"md.ghost.bytes_per_step", "B"},
	{"mpi.p2p_msgs_per_step", "msgs"},
	{"mpi.p2p_bytes_per_step", "B"},
	{"mpi.coll_msgs_per_step", "msgs"},
	{"mpi.p2p_msgs_per_cycle", "msgs"},
	{"mpi.coll_msgs_per_cycle", "msgs"},
	{"kmc.events_per_cycle", "events"},
	{"kmc.sector_ms_per_cycle", "ms"},
	{"kmc.sync_ms_per_cycle", "ms"},
	{"kmc.flush_ms_per_cycle", "ms"},
	{"kmc.dirty_bytes_per_event", "B"},
	{"kmc.allocs_per_cycle", "allocs"},
	{"kmc.imbalance", "max/mean"},
	{"couple.md_stage_frac", "frac"},
	{"couple.kmc_stage_frac", "frac"},
	{"campaign.recoils", "count"},
	{"campaign.population", "vacancies"},
	{"checkpoint.save_ms_p50", "ms"},
	{"checkpoint.commit_ms_p50", "ms"},
	{"checkpoint.snapshots", "count"},
	{"checkpoint.bytes_per_snapshot", "B"},
	{"checkpoint.latest_ms", "ms"},
	{"serve.submit_ms_p50", "ms"},
	{"serve.queue_wait_s_p50", "s"},
	{"serve.runner_s_p50", "s"},
	{"serve.overhead_s_p50", "s"},
	{"serve.preemptions", "count"},
	{"serve.attempts_per_job", "attempts"},
	{"serve.rejects", "count"},
	{"serve.ledger_bytes", "B"},
	{"serve.leaked_goroutines", "count"},
	{"telemetry.overhead_frac", "frac"},
	{"runtime.gc_pause_ms", "ms"},
}

// snap indexes one registry snapshot by metric name.
type snap map[string]telemetry.Metric

func snapshotOf(reg *telemetry.Registry) snap {
	out := snap{}
	for _, m := range reg.Snapshot().Metrics {
		out[m.Name] = m
	}
	return out
}

// ns returns a timer's total nanoseconds (0 when absent).
func (s snap) ns(name string) int64 { return s[name].SumNS }

// addTotals adds every metric of s into tot: a timer's total nanoseconds
// under its name and its observation count under name+"#count", a
// counter's value under its name.
func (s snap) addTotals(tot map[string]float64) {
	for _, m := range s {
		if m.Kind == "timer" {
			tot[m.Name] += float64(m.SumNS)
			tot[m.Name+"#count"] += float64(m.Count)
		} else {
			tot[m.Name] += float64(m.Value)
		}
	}
}

// count returns a timer's observation count or a counter's value.
func (s snap) count(name string) int64 {
	m := s[name]
	if m.Kind == "timer" {
		return m.Count
	}
	return m.Value
}

// histP50MS estimates a timer's median from its log2 histogram, placing
// the median geometrically inside its bucket; 0 when the timer is empty.
func histP50MS(m telemetry.Metric) float64 {
	var total int64
	for _, b := range m.Buckets {
		total += b.Count
	}
	half := float64(total) / 2
	var seen float64
	for _, b := range m.Buckets {
		hi := float64(b.LeNS + 1) // bucket holds (hi/2, hi) ns
		if seen+float64(b.Count) >= half {
			frac := (half - seen) / float64(b.Count)
			return hi / 2 * math.Pow(2, frac) / 1e6
		}
		seen += float64(b.Count)
	}
	return 0
}

// imbalance returns max/mean of per-rank values (1 when all are zero).
func imbalance(vals []float64) float64 {
	var sum, mx float64
	for _, v := range vals {
		sum += v
		mx = math.Max(mx, v)
	}
	if sum == 0 {
		return 1
	}
	return mx / (sum / float64(len(vals)))
}
