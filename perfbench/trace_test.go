package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestSelfTimeSubtractsCoveredChildIntervals(t *testing.T) {
	spans := []span{
		{Name: "client.cycle", Start: 0, End: 100, Parent: -1},
		{Name: "fleetserver.post", Start: 10, End: 30, Parent: 0},
		{Name: "fleetserver.step", Start: 20, End: 60, Parent: 0},    // overlaps the post: union 10..60
		{Name: "fleet.step", Start: 30, End: 50, Parent: 2},          // nested one level down
		{Name: "fleetserver.scrape", Start: 90, End: 120, Parent: 0}, // sticks out: only 90..100 counts
		{Name: "fleetserver.open", Start: 95, End: -1, Parent: 0},    // never closed: ignored
		{Name: "replay.device", Start: 200, End: 210, Parent: -1},    // no children
		{Name: "core.run", Start: 200, End: 200, Parent: 6},          // empty
	}
	self := selfTimes(spans)
	want := []int64{100 - 50 - 10, 20, 40 - 20, 20, 30, 0, 10, 0}
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("span %d (%s): self %d, want %d", i, spans[i].Name, self[i], want[i])
		}
	}
	layers := layerSelf(spans)
	if layers["client"] != 40 || layers["fleetserver"] != 20+20+30 || layers["fleet"] != 20 || layers["replay"] != 10 {
		t.Errorf("layer self times %v", layers)
	}
}

func TestRecorderNilIsANoOp(t *testing.T) {
	var r *recorder
	id := r.begin("x", -1, 0)
	r.end(id)
	r.add("y", time.Now(), time.Now(), id, 0)
	if id != -1 || r.durations("x") != nil {
		t.Fatal("nil recorder recorded something")
	}
}

func TestRecorderWritesSpansAndLayerTotals(t *testing.T) {
	r := newRecorder()
	p := r.begin("core.run", -1, 7)
	c := r.begin("nvm.hash", p, 7)
	r.end(c)
	r.end(p)
	path := filepath.Join(t.TempDir(), "spans.jsonl")
	if err := r.write(path); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	if len(lines) != 4 {
		t.Fatalf("%d lines, want 2 spans + 2 layers:\n%s", len(lines), b)
	}
	var s span
	if err := json.Unmarshal([]byte(lines[1]), &s); err != nil || s.Name != "nvm.hash" || s.Parent != 0 || s.Op != 7 {
		t.Fatalf("second line %q: %+v %v", lines[1], s, err)
	}
	if !strings.Contains(lines[2], `"layer":"core"`) || !strings.Contains(lines[3], `"layer":"nvm"`) {
		t.Fatalf("layer lines %q", lines[2:])
	}
}
