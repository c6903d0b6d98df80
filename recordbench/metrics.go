package main

// spec names one metric of the JSON line.  moves says what it measures
// (end-to-end) or which end-to-end metric it should move on which workload
// (per-layer); it is printed beside the value.  better is "lower" or
// "higher".
type spec struct {
	name, unit, better, moves string
}

// endToEnd are the metrics of an untraced run.  Every workload reports all
// of them; metrics that apply to some workloads only (retarget_geomean_ms,
// alloc_kb_per_op, error_rate) are printed in the table above the JSON
// line instead, and so is latency_p99_ms: on a 2-vCPU host shared with
// other tenants it moved by half between consecutive runs, more than any
// bound a regression gate can use.
var endToEnd = []spec{
	{"setup_s", "s", "lower", "median of several set-ups: target(s) retargeted, recordd started, caches primed, warm-up ops run"},
	{"throughput_ops_s", "ops/s", "higher", "completed ops per second, closed loop; median over 10 time windows"},
	{"latency_p50_ms", "ms", "lower", "geomean over the inputs (models or kernels) of each input's median op latency; median over 10 time windows"},
	{"code_size_pct_hand", "%", "lower", "geomean over the ten DSPStone kernels of words ÷ hand-written words × 100 (Figure 2)"},
	{"rss_mb", "MB", "lower", "median VmRSS, sampled every 100ms while timed, of the process doing the work (recordd for served workloads)"},
}

// perLayer are the metrics of a traced run.  Every traced run reports all
// of them: the named workload runs traced for the whole measured time and
// the other workloads run a short traced census, so each layer is always
// covered.
var perLayer = []spec{
	// Retarget phases: geomean over the six models of each model's median.
	{"hdl.parse_ms", "ms", "lower", "table3-retarget retarget_geomean_ms; serve-churn p50/p99 (Artifact.Target re-parses)"},
	{"netlist.elaborate_ms", "ms", "lower", "table3-retarget retarget_geomean_ms; serve-churn p50/p99 (Artifact.Target re-elaborates)"},
	{"ise.extract_ms", "ms", "lower", "table3-retarget retarget_geomean_ms and throughput_ops_s only"},
	{"rewrite.extend_ms", "ms", "lower", "table3-retarget retarget_geomean_ms and throughput_ops_s only"},
	{"grammar.build_ms", "ms", "lower", "table3-retarget retarget_geomean_ms and throughput_ops_s only"},
	{"burs.parser_ms", "ms", "lower", "table3-retarget retarget_geomean_ms and throughput_ops_s only"},
	{"asm.encoder_ms", "ms", "lower", "table3-retarget throughput_ops_s most (ref-weighted), retarget_geomean_ms"},
	{"asm.freeze_ms", "ms", "lower", "table3-retarget throughput_ops_s most (ref-weighted), retarget_geomean_ms"},
	// Per-model cold retarget: the Table 3 rows.
	{"core.retarget_ms.demo", "ms", "lower", "table3-retarget throughput_ops_s and retarget_geomean_ms"},
	{"core.retarget_ms.ref", "ms", "lower", "table3-retarget throughput_ops_s and retarget_geomean_ms"},
	{"core.retarget_ms.manocpu", "ms", "lower", "table3-retarget throughput_ops_s and retarget_geomean_ms"},
	{"core.retarget_ms.tanenbaum", "ms", "lower", "table3-retarget throughput_ops_s and retarget_geomean_ms"},
	{"core.retarget_ms.bass_boost", "ms", "lower", "table3-retarget throughput_ops_s and retarget_geomean_ms"},
	{"core.retarget_ms.tms320c25", "ms", "lower", "table3-retarget throughput_ops_s and retarget_geomean_ms"},
	{"core.retarget_geomean_ms", "ms", "lower", "table3-retarget retarget_geomean_ms; base of rcache.disk_vs_cold"},
	// Retarget counts, summed over the six models; they repeat exactly.
	{"ise.routes", "count", "lower", "table3-retarget throughput_ops_s (routes enumerated)"},
	{"ise.templates", "count", "higher", "table3-retarget (templates ISE delivers)"},
	{"ise.useful_ratio", "ratio", "higher", "table3-retarget throughput_ops_s (templates ÷ routes enumerated)"},
	{"ise.bdd_nodes", "count", "lower", "table3-retarget throughput_ops_s"},
	{"rewrite.templates", "count", "higher", "Table 3 template column; fixed unless behaviour changes"},
	{"grammar.rules", "count", "lower", "table3-retarget throughput_ops_s"},
	// Compile stages: median per kernel summed over the ten kernels.
	{"cfront.parse_us", "us", "lower", "fig2-compile p50/throughput fully; serve-hot p50 by compile's share; serve-churn none"},
	{"bind.bind_us", "us", "lower", "fig2-compile p50/throughput fully; serve-hot p50 by compile's share; serve-churn none"},
	{"codegen.select_us", "us", "lower", "fig2-compile p50/throughput fully; serve-hot p50 by compile's share; serve-churn none"},
	{"opt.peephole_us", "us", "lower", "fig2-compile p50/throughput fully; serve-hot p50 by compile's share; serve-churn none"},
	{"compact.compact_us", "us", "lower", "fig2-compile p50/throughput fully; serve-hot p50 by compile's share; serve-churn none"},
	{"compact.verify_us", "us", "lower", "fig2-compile p50/throughput fully; serve-hot p50 by compile's share; serve-churn none"},
	{"asm.encode_us", "us", "lower", "fig2-compile p50/throughput fully; serve-hot p50 by compile's share; serve-churn none"},
	{"asm.listing_us", "us", "lower", "serve-hot p50/throughput only (fig2-compile renders no listing)"},
	// Compile counts, summed over the ten kernels.
	{"codegen.instrs", "count", "lower", "fig2-compile; feeds code_size_pct_hand"},
	{"codegen.spills", "count", "lower", "fig2-compile; feeds code_size_pct_hand"},
	{"opt.removed", "count", "higher", "fig2-compile (loads + stores removed)"},
	{"compact.words", "count", "lower", "code_size_pct_hand on every workload"},
	{"asm.overlay_nodes", "count", "lower", "fig2-compile throughput (session overlay after one kernel, fresh session)"},
	// Compiler-level ratios.
	{"core.compiler_scaling_eff", "ratio", "higher", "fig2-compile throughput_ops_s (throughput at nproc ÷ nproc × throughput at 1)"},
	{"core.target_path_ratio", "ratio", "lower", "no end-to-end metric (Target.CompileSourceContext ÷ Compiler.CompileSource)"},
	// Service, measured at the wire.
	{"recordd.overhead_ms", "ms", "lower", "serve-hot p50 and throughput (request median − in-process compile+listing median)"},
	{"recordd.response_kb", "KB", "lower", "serve-hot throughput (mean response body)"},
	{"recordd.connections", "count", "lower", "serve-hot p50; must equal the client count"},
	// Artifact tier.
	{"rcache.mem_hit_frac", "fraction", "higher", "serve-churn p50 (replies with cache=hit)"},
	{"rcache.disk_hit_frac", "fraction", "lower", "serve-churn p50 (replies with cache=hit-disk)"},
	{"rcache.miss_frac", "fraction", "lower", "serve-churn p50 (replies with cache=miss)"},
	{"rcache.mem_hit_us", "us", "lower", "serve-hot p50 (GetContext on a warm cache)"},
	{"artifact.bytes", "bytes", "lower", "serve-churn p50, p99 through ref (sum of Encode sizes)"},
	{"artifact.decode_ms", "ms", "lower", "serve-churn p50, p99 through ref"},
	{"artifact.target_ms", "ms", "lower", "serve-churn p50, p99 through ref"},
	{"rcache.disk_load_ms", "ms", "lower", "serve-churn p50, p99 through ref (fresh rcache.New on a populated dir + GetContext)"},
	{"rcache.disk_vs_cold", "ratio", "higher", "serve-churn: core.retarget_geomean_ms ÷ rcache.disk_load_ms (proposed gate ≥5)"},
	// The benchmark's own cost.
	{"trace.overhead_ratio", "ratio", "higher", "traced ÷ untraced throughput on the named workload"},
}
