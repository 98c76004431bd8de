package main

// The metric rosters. Names are normative — later issues cite them
// verbatim — and TestRosterPinned holds them to BENCHMARK.json and README.md.
// Bounds live only in BENCHMARK.json.

type metricDef struct {
	name, unit string
	lower      bool // lower is better
}

// endToEnd is what a user of the system sees, measured with tracing off.
// Two of ISSUE 11's nine are not here. fail_frac is always 0 on a healthy
// run and so cannot carry a relative bound: the driver reads it as failed
// ÷ attempted. lat_p99_us does not repeat within any bound on wire-open on
// this host (see README.md, Calibration). Both keep their names and are
// printed with the per-layer metrics.
var endToEnd = []metricDef{
	{"setup_s", "s", true},
	{"ops_per_s", "1/s", false},
	{"keys_per_s", "1/s", false},
	{"lat_p50_us", "us", true},
	{"cpu_us_per_op", "us", true},
	{"allocs_per_op", "count", true},
	{"heap_mb", "MB", true},
}

// perLayer comes from the traced run. The prefix is the module the
// number belongs to. A workload that does not exercise a layer (or cannot
// see into it from outside) reports that layer's metrics as 0.
var perLayer = []metricDef{
	{"fail_frac", "frac", true},
	{"lat_p99_us", "us", true},

	{"loadgen.ns_per_op", "ns", true},
	{"loadgen.late_p99_us", "us", true},
	{"trace.overhead_frac", "frac", true},

	{"server.rtt_p50_us", "us", true},
	{"server.rtt_p99_us", "us", true},
	{"server.residence_p50_us", "us", true},
	{"server.residence_p99_us", "us", true},
	{"server.flush_p50_us", "us", true},
	{"server.transit_p50_us", "us", true},
	{"server.exec_ns_per_req", "ns", true},
	{"server.overhead_us_per_req", "us", true},
	{"server.parse_ns_per_req", "ns", true},
	{"server.parse_allocs_per_req", "count", true},
	{"server.reads_per_req", "count", true},
	{"server.writes_per_req", "count", true},
	{"server.bytes_in_per_req", "B", true},
	{"server.bytes_out_per_req", "B", true},
	{"server.shed_frac", "frac", true},

	{"combinator.cross_ns_per_op", "ns", true},
	{"combinator.merge_ns_per_key", "ns", true},
	{"combinator.merge_allocs_per_op", "count", true},
	{"combinator.batch_ns_per_key", "ns", true},
	{"combinator.page_pulls_per_page", "count", true},
	{"combinator.page_overcollect", "ratio", true},
	{"combinator.combine_frac", "frac", false},

	{"core.scan_p50_us", "us", true},
	{"core.scan_p99_us", "us", true},
	{"core.page_p50_us", "us", true},
	{"core.page_p99_us", "us", true},
	{"core.batch_p50_us", "us", true},
	{"core.batch_p99_us", "us", true},
	{"core.scan_retry_frac", "frac", true},
	{"core.cursor_retry_frac", "frac", true},
	{"core.restarted_frac", "frac", true},

	{"hashtable.get_p50_ns", "ns", true},
	{"hashtable.get_p99_ns", "ns", true},
	{"hashtable.update_p50_ns", "ns", true},

	{"skiplist.get_p50_ns", "ns", true},
	{"skiplist.update_p50_ns", "ns", true},
	{"skiplist.scan_ns_per_key", "ns", true},
	{"skiplist.page_ns_per_key", "ns", true},
	{"skiplist.batch_ns_per_key", "ns", true},

	{"locks.wait_frac", "frac", true},
	{"locks.waiting_acq_frac", "frac", true},
	{"locks.max_wait_us", "us", true},

	{"ebr.bracket_ns_per_op", "ns", true},
	{"ebr.enter_exit_ns", "ns", true},
	{"ebr.retired", "count", true},
	{"ebr.reclaimed", "count", false},
	{"ebr.reclaim_lag", "frac", true},
	{"ebr.pool_hit_frac", "frac", false},

	{"stats.record_ns_per_op", "ns", true},

	{"runtime.gc_pause_ms_per_s", "ms/s", true},
	{"runtime.gc_cycles_per_s", "1/s", true},
	{"runtime.bytes_per_op", "B", true},
}

// value is one reported number. Metrics reduced over slices carry the
// distance between the slice quartiles and the slices themselves in the
// full report; the driver's result line carries value and unit only.
type value struct {
	Value  float64   `json:"value"`
	Unit   string    `json:"unit"`
	IQR    float64   `json:"slice_iqr,omitempty"`
	Slices []float64 `json:"slices,omitempty"`
}

func sliced(s spread) value { return value{Value: s.med, IQR: s.q3 - s.q1, Slices: s.xs} }

// endToEndValues reduces one untraced window (plus the set-up samples)
// to the end-to-end roster.
func endToEndValues(setup []float64, m *measured) map[string]value {
	ops := float64(m.opsTotal())
	rate := m.opsPerSec()
	keys := m.rate(func(r *workerRec, s int) uint64 { return r.keys[s] })
	p50 := m.latency(0.5)
	vals := map[string]value{
		"setup_s":       {Value: median(setup)},
		"ops_per_s":     sliced(rate),
		"keys_per_s":    sliced(keys),
		"lat_p50_us":    sliced(p50),
		"cpu_us_per_op": sliced(m.cpuPerOp()),
		"allocs_per_op": {Value: float64(m.b.mallocs-m.a.mallocs) / ops},
		"heap_mb":       {Value: float64(m.heapLive) / (1 << 20)},
	}
	for _, d := range endToEnd {
		v := vals[d.name]
		v.Unit = d.unit
		vals[d.name] = v
	}
	return vals
}

// layerValues attaches units to a traced run's numbers and fills the
// layers the workload did not measure with 0.
func layerValues(got map[string]float64) map[string]value {
	vals := make(map[string]value, len(perLayer))
	for _, d := range perLayer {
		vals[d.name] = value{Value: got[d.name], Unit: d.unit}
	}
	return vals
}
