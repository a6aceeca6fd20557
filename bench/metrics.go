package main

// metricDef names one metric the benchmark prints. BENCHMARK.json at the
// repository root repeats these tables for the driver; a test keeps the
// two in step.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: allowed worsening as a share of the parent's median
}

// End-to-end metrics, one value per workload. failed_frac is printed too
// but is not in this table: it is 0 on a healthy run, and the driver's
// contract carries failures in the result's attempted/failed counts.
var e2eMetrics = []metricDef{
	{"rel_wall", "ratio", "lower", 0.25},
	{"rel_cpu", "ratio", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.10},
	{"setup_s", "s", "lower", 0.25},
}

// Per-layer metrics, all reported by the traced run of every workload. A
// metric whose layer the workload does not touch reads 0 there (no tcpnet
// on sim_hybrid, no simulator on the others), which is the prediction "no
// change" made visible.
var layerMetrics = []metricDef{
	{Name: "datagen.build_ns_per_tuple", Unit: "ns", Better: "lower"},
	{Name: "datagen.probe_ns_per_tuple", Unit: "ns", Better: "lower"},
	{Name: "tuple.chunk_ns_per_tuple", Unit: "ns", Better: "lower"},
	{Name: "tuple.chunk_allocs_per_tuple", Unit: "count", Better: "lower"},
	{Name: "tuple.encode_ns_per_tuple", Unit: "ns", Better: "lower"},
	{Name: "tuple.decode_ns_per_tuple", Unit: "ns", Better: "lower"},
	{Name: "tuple.decode_allocs_per_tuple", Unit: "count", Better: "lower"},
	{Name: "tuple.wire_bytes_per_tuple", Unit: "B", Better: "lower"},
	{Name: "hashfn.position_ns_per_key", Unit: "ns", Better: "lower"},
	{Name: "hashtable.insert_ns_per_tuple", Unit: "ns", Better: "lower"},
	{Name: "hashtable.insert_allocs_per_tuple", Unit: "count", Better: "lower"},
	{Name: "hashtable.heap_bytes_per_tuple", Unit: "B", Better: "lower"},
	{Name: "hashtable.probe_ns_per_tuple", Unit: "ns", Better: "lower"},
	{Name: "hashtable.probe_ns_per_match", Unit: "ns", Better: "lower"},
	{Name: "hashtable.matches", Unit: "count", Better: "higher"},
	{Name: "hashtable.extract_ns_per_tuple", Unit: "ns", Better: "lower"},
	{Name: "spill.rung_ns_per_tuple", Unit: "ns", Better: "lower"},
	{Name: "spill.finish_s", Unit: "s", Better: "lower"},
	{Name: "core.source_busy_s", Unit: "s", Better: "lower"},
	{Name: "core.join_busy_s", Unit: "s", Better: "lower"},
	{Name: "core.sched_busy_s", Unit: "s", Better: "lower"},
	{Name: "core.msgs", Unit: "count", Better: "lower"},
	{Name: "core.join_wait_s", Unit: "s", Better: "lower"},
	{Name: "live.exec_ns_per_tuple", Unit: "ns", Better: "lower"},
	{Name: "trace.overhead_frac", Unit: "fraction", Better: "lower"},
	{Name: "tcpnet.tax_ns_per_tuple", Unit: "ns", Better: "lower"},
	{Name: "tcpnet.cpu_tax_ns_per_tuple", Unit: "ns", Better: "lower"},
	{Name: "tcpnet.wal_bytes_per_ktuple", Unit: "B", Better: "lower"},
	{Name: "sim.ns_per_tuple", Unit: "ns", Better: "lower"},
	{Name: "sim.msgs_per_sec", Unit: "1/s", Better: "higher"},
	{Name: "sim.virtual_total_s", Unit: "s", Better: "lower"},
	{Name: "ehjadist.wall_s_raw", Unit: "s", Better: "lower"},
	{Name: "ehjadist.tuples_per_sec_raw", Unit: "1/s", Better: "higher"},
	{Name: "ehjadist.final_nodes", Unit: "count", Better: "lower"},
	{Name: "ehjadist.replications", Unit: "count", Better: "lower"},
	{Name: "ehjadist.spilled_partitions", Unit: "count", Better: "lower"},
	{Name: "ehjadist.spill_kb", Unit: "KB", Better: "lower"},
	{Name: "ehjadist.heavy_keys", Unit: "count", Better: "lower"},
	{Name: "ehjadist.relayed_msgs", Unit: "count", Better: "lower"},
	{Name: "oracle.mapjoin_ns_per_tuple", Unit: "ns", Better: "lower"},
	{Name: "ref.kernel_s", Unit: "s", Better: "lower"},
	{Name: "ref.kernel_iqr_frac", Unit: "fraction", Better: "lower"},
}

// metricValue is one reported number in the driver's result schema.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report fills the driver-facing map for defs from raw values; a name with
// no raw value reads 0 (the layer was not exercised).
func report(defs []metricDef, raw map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		out[d.Name] = metricValue{Value: raw[d.Name], Unit: d.Unit}
	}
	return out
}
