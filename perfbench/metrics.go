package main

// metricSpec is a metric's name and unit as BENCHMARK.json lists it.
type metricSpec struct{ name, unit string }

// perLayerMetrics is every metric a traced run reports. A layer a
// workload does not exercise reports 0 (partition.* off instacart-sim).
var perLayerMetrics = func() []metricSpec {
	m := []metricSpec{
		{"chiller.attempts_per_op", "count"},
		{"chiller.backoff_frac", "ratio"},
		{"core.attempt_p50_us", "us"},
		{"core.attempt_p99_us", "us"},
		{"core.abort_frac", "ratio"},
		{"core.distributed_frac", "ratio"},
	}
	for _, r := range abortReasons {
		m = append(m, metricSpec{"core.abort." + r, "ratio"})
	}
	m = append(m,
		metricSpec{"simnet.rtt_idle_p50_us", "us"},
		metricSpec{"simnet.rtt_idle_p99_us", "us"},
		metricSpec{"simnet.rtt_loaded_p50_us", "us"},
		metricSpec{"simnet.rtt_loaded_p99_us", "us"},
		metricSpec{"simnet.rtt_ratio", "ratio"},
		metricSpec{"simnet.rtt_allocs", "count"},
		metricSpec{"simnet.doorbell_p50_us", "us"},
		metricSpec{"simnet.doorbell_allocs", "count"},
		metricSpec{"tcpnet.rtt_p50_us", "us"},
		metricSpec{"tcpnet.rtt_p99_us", "us"},
		metricSpec{"tcpnet.rtt_4k_p50_us", "us"},
		metricSpec{"tcpnet.doorbell_p50_us", "us"},
		metricSpec{"tcpnet.doorbell_allocs", "count"},
		metricSpec{"tcpnet.allocs_per_call", "count"},
		metricSpec{"server.lock_codec_ns", "ns"},
		metricSpec{"server.writes_codec_ns", "ns"},
		metricSpec{"server.codec_allocs", "count"},
		metricSpec{"server.doorbell_post_ns", "ns"},
		metricSpec{"server.lane_hop_p50_us", "us"},
		metricSpec{"server.lane_hop_allocs", "count"},
		metricSpec{"storage.lock_ns", "ns"},
		metricSpec{"storage.lock_allocs", "count"},
		metricSpec{"storage.get_ns", "ns"},
		metricSpec{"storage.get_allocs", "count"},
		metricSpec{"storage.put_ns", "ns"},
		metricSpec{"storage.put_allocs", "count"},
		metricSpec{"storage.insert_ns", "ns"},
		metricSpec{"storage.insert_allocs", "count"},
		metricSpec{"storage.mvcc_read_ns", "ns"},
		metricSpec{"storage.mvcc_read_allocs", "count"},
		metricSpec{"storage.load_ns_per_record", "ns"},
		metricSpec{"wal.commit_wait_p50_us", "us"},
		metricSpec{"wal.commit_wait_p99_us", "us"},
		metricSpec{"wal.commit_allocs", "count"},
		metricSpec{"wal.appends_per_flush", "count"},
		metricSpec{"partition.repartition_ms", "ms"},
		metricSpec{"partition.hot_records", "count"},
		metricSpec{"partition.moved", "count"},
		metricSpec{"runtime.allocs_per_op", "count"},
		metricSpec{"runtime.bytes_per_op", "B"},
		metricSpec{"runtime.gc_cpu_frac", "ratio"},
		metricSpec{"trace.overhead_frac", "ratio"},
	)
	for _, c := range cpuModules {
		m = append(m, metricSpec{"cpu." + c, "ratio"})
	}
	return m
}()
