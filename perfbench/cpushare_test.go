package main

import "testing"

func TestBucketOf(t *testing.T) {
	cases := map[string]string{
		"github.com/tinysystems/artemis-go/internal/nvm.(*Memory).writeRanged":        "nvm",
		"github.com/tinysystems/artemis-go/internal/fleet.(*Engine).Step.func1":       "fleet",
		"github.com/tinysystems/artemis-go/internal/fleetserver.(*Server).Ingest":     "fleetserver",
		"github.com/tinysystems/artemis-go/internal/nvm.decodeWord[go.shape.float64]": "nvm",
		"github.com/tinysystems/artemis-go/internal/simclock.(*Clock).Advance":        "other",
		"runtime.mallocgc":                        "gc",
		"runtime/internal/syscall.Syscall6":       "gc",
		"internal/runtime/maps.(*Map).getWithKey": "gc",
		"net/http.(*conn).serve":                  "net_http",
		"encoding/json.(*decodeState).object":     "encoding_json",
		"syscall.Syscall":                         "other",
		"main.run":                                "other",
	}
	for fn, want := range cases {
		if got := bucketOf(fn); got != want {
			t.Errorf("bucketOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestParseTopSumsFlatShares(t *testing.T) {
	top := []byte(`File: perfbench
Type: cpu
Duration: 3s, Total samples = 100ms (3.33%)
Showing nodes accounting for 100ms, 100% of 100ms total
      flat  flat%   sum%        cum   cum%
      40ms 40.00% 40.00%       50ms 50.00%  github.com/tinysystems/artemis-go/internal/nvm.(*Memory).write
      30ms 30.00% 70.00%       30ms 30.00%  runtime.memclrNoHeapPointers
      20ms 20.00% 90.00%       20ms 20.00%  github.com/tinysystems/artemis-go/internal/nvm.mixWord
      10ms 10.00%   100%       90ms 90.00%  main.main
`)
	got, err := parseTop(top)
	if err != nil {
		t.Fatal(err)
	}
	if got["nvm"] != 60 || got["gc"] != 30 || got["other"] != 10 || got["codegen"] != 0 {
		t.Fatalf("shares %v", got)
	}
	if len(got) != len(shareBuckets) {
		t.Fatalf("%d buckets, want every one of %d", len(got), len(shareBuckets))
	}
	if _, err := parseTop([]byte("no samples\n")); err == nil {
		t.Fatal("empty profile parsed")
	}
}
