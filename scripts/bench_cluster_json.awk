# bench_cluster_json.awk — renders `go test -bench` output for the
# clustering-tail benchmarks (BenchmarkKMeans, BenchmarkPick/budget10pct)
# into BENCH_cluster.json. Invoked by `make bench-cluster` with -v date=...
# and -v gover=...; reads the concatenated raw benchmark output on stdin.
#
# Benchmark lines look like
#   BenchmarkKMeans/bounded-1   300   45678 ns/op   0.836 skipped-dist-frac   1024 B/op   5 allocs/op
# i.e. an iteration count followed by (value, unit) pairs; units become JSON
# keys. The speedup ratios are derived from the ns/op of paired benchmarks
# measured in the same run.

/^cpu:/ { cpu = $0; sub(/^cpu: */, "", cpu) }

/^Benchmark/ {
    name = $1
    sub(/-[0-9]+$/, "", name)
    if (!(name in seen)) { seen[name] = 1; names[n++] = name }
    for (i = 3; i < NF; i += 2) {
        unit = $(i + 1)
        gsub(/[\/-]/, "_", unit)
        metric[name, unit] = $i
        if (!((name, "units") in metric)) metric[name, "units"] = unit
        else metric[name, "units"] = metric[name, "units"] " " unit
    }
}

function emit(name,   units, nu, u, parts, first) {
    printf "    \"%s\": { ", name
    nu = split(metric[name, "units"], parts, " ")
    first = 1
    for (u = 1; u <= nu; u++) {
        if (!first) printf ", "
        printf "\"%s\": %s", parts[u], metric[name, parts[u]]
        first = 0
    }
    printf " }"
}

function ratio(a, b,   x, y) {
    x = metric[a, "ns_op"]; y = metric[b, "ns_op"]
    if (x > 0 && y > 0) return x / y
    return 0
}

END {
    printf "{\n"
    printf "  \"benchmark\": \"bench-cluster\",\n"
    printf "  \"recorded\": \"%s\",\n", date
    printf "  \"host\": \"%s (shared VM; expect double-digit run-to-run variance)\",\n", cpu
    printf "  \"go\": \"%s\",\n", gover
    printf "  \"command\": \"make bench-cluster\",\n"
    printf "  \"results\": {\n"
    for (i = 0; i < n; i++) {
        emit(names[i])
        printf (i < n - 1) ? ",\n" : "\n"
    }
    printf "  },\n"
    printf "  \"derived\": {\n"
    printf "    \"kmeans_bounded_speedup\": %.2f,\n", ratio("BenchmarkKMeans/reference", "BenchmarkKMeans/bounded")
    # The paired sub-benchmark interleaves reference and batch picks, so its
    # in-run speedup metric is robust to host load; fall back to the ns/op
    # ratio of the separate sub-benchmarks if it is absent.
    paired = metric["BenchmarkPick/budget10pct/paired", "speedup"]
    if (paired == "" || paired + 0 == 0)
        paired = ratio("BenchmarkPick/budget10pct/reference", "BenchmarkPick/budget10pct/batch")
    printf "    \"pick_budget10pct_speedup\": %.2f\n", paired
    printf "  },\n"
    printf "  \"notes\": [\n"
    printf "    \"pick_budget10pct_speedup comes from the /paired sub-benchmark, which times one reference and one batch pick back to back per iteration so both see the same host load; it is the number to trust on this shared box.\",\n"
    printf "    \"The separate /reference and /batch ns/op readings drift apart by double digits run to run (the reference allocates ~20x more per op and inflates more under memory pressure), so their ratio over- or under-states the paired measurement.\",\n"
    printf "    \"Remaining pick time is split between the GBT funnel (Predict + FillRow, zero-alloc since the flattened-inference change) and the bounded clustering tail; the skipped-dist-frac metric reports how many point-center distance computations the triangle-inequality bounds eliminated.\",\n"
    printf "    \"Reference and bounded k-means share one distance kernel pair (four-lane sqDist/sqDistBounded since PR 12), so a kernel change moves both sides of each ratio; what the clustering tail costs a served query is read from the serving benchmark (bench/, adhoc-pick: cluster.kmeans_ms, query_p50_ms), not from these ratios.\"\n"
    printf "  ]\n"
    printf "}\n"
}
