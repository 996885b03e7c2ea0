package main

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"

	"relatch/internal/engine"
)

func sweepOptions(benches, approaches string, jobs int) options {
	return options{
		benchName: benches,
		approach:  approaches,
		overhead:  1.0,
		method:    "auto",
		jobs:      jobs,
	}
}

// benchJSON encodes a sweep's rows the way -bench-json prints them.
func benchJSON(t *testing.T, rows []benchRow) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := writeBenchDoc(&b, rows); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// TestBenchSweepParallelMatchesSerial is the -bench-json acceptance
// check: the -j 8 document must be byte-identical to the -j 1 one. The
// plain-diff make bench-check gate relies on exactly this.
func TestBenchSweepParallelMatchesSerial(t *testing.T) {
	const benches, approaches = "s1196", "grar,base,nvl"
	serial, _, err := benchSweep(context.Background(), sweepOptions(benches, approaches, 1))
	if err != nil {
		t.Fatal(err)
	}
	parallel, _, err := benchSweep(context.Background(), sweepOptions(benches, approaches, 8))
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) != 3 {
		t.Fatalf("rows = %d, want 3", len(serial))
	}
	if s, p := benchJSON(t, serial), benchJSON(t, parallel); !bytes.Equal(s, p) {
		t.Errorf("-j 8 document differs from -j 1:\n--- serial\n%s--- parallel\n%s", s, p)
	}
	// Rows come out sorted by (bench, approach) regardless of the
	// submission order grar,base,nvl.
	for i := 1; i < len(serial); i++ {
		if serial[i-1].Bench > serial[i].Bench ||
			(serial[i-1].Bench == serial[i].Bench && serial[i-1].Approach >= serial[i].Approach) {
			t.Errorf("rows not sorted: %q/%q before %q/%q",
				serial[i-1].Bench, serial[i-1].Approach, serial[i].Bench, serial[i].Approach)
		}
	}
	for _, r := range serial {
		if r.Slaves <= 0 || r.SeqArea <= 0 {
			t.Errorf("degenerate row %+v", r)
		}
	}
}

// TestBenchSweepCacheHits covers the warm-cache acceptance check: with a
// shared cache dir, the second sweep restores every row (zero solver
// effort) and marks its provenance.
func TestBenchSweepCacheHits(t *testing.T) {
	dir := t.TempDir()
	o := sweepOptions("s1196", "grar,base", 2)
	o.cacheDir = dir

	cold, _, err := benchSweep(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}
	warm, stats, err := benchSweep(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range warm {
		if r.Cache != "disk" {
			t.Errorf("warm row %d came from %q, want disk", i, r.Cache)
		}
		if r.Pivots != 0 || r.Augmentations != 0 {
			t.Errorf("warm row %d ran the solver: %d pivots, %d augmentations", i, r.Pivots, r.Augmentations)
		}
	}
	if stats.Cache.DiskHits != int64(len(warm)) {
		t.Errorf("disk hits = %d, want %d", stats.Cache.DiskHits, len(warm))
	}
	for i, c := range cold {
		// Cold rows carry solver effort and no cache provenance.
		w := warm[i]
		c.Pivots, c.Augmentations, w.Cache = 0, 0, ""
		if c != w {
			t.Errorf("warm row %d differs from cold:\n cold %+v\n warm %+v", i, c, w)
		}
	}
}

func TestBenchListValidation(t *testing.T) {
	cases := []struct {
		benches, approaches string
		wantTok             string
	}{
		{"s1196,s9999", "grar", "s9999"},
		{"s1196,s1196", "grar", "s1196"},
		{"", "grar", "-bench"},
		{",,", "grar", "no benchmarks"},
		{"s1196", "grar,warp", "warp"},
		{"s1196", "grar,grar", "grar"},
		{"s1196", ",,", "no approaches"},
	}
	for _, tc := range cases {
		_, _, err := benchSweep(context.Background(), sweepOptions(tc.benches, tc.approaches, 1))
		if err == nil {
			t.Errorf("bench %q approach %q accepted", tc.benches, tc.approaches)
			continue
		}
		var ue usageError
		if !errors.As(err, &ue) {
			t.Errorf("bench %q approach %q: %v is not a usage error (exit 2)", tc.benches, tc.approaches, err)
		}
		if !strings.Contains(err.Error(), tc.wantTok) {
			t.Errorf("error %q does not name %q", err, tc.wantTok)
		}
	}
	// "all" expands to the whole suite.
	if profs, err := parseBenchList("all"); err != nil || len(profs) < 10 {
		t.Errorf("parseBenchList(all) = %d profiles, %v", len(profs), err)
	}
	if aps, err := parseApproachList("grar,base,nvl,evl,rvl"); err != nil || len(aps) != 5 {
		t.Errorf("full approach list = %v, %v", aps, err)
	} else if aps[0] != engine.GRAR || aps[4] != engine.RVL {
		t.Errorf("approach order mangled: %v", aps)
	}
}
