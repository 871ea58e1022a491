package fleetserver

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/tinysystems/artemis-go/internal/telemetry"
)

func doJSON(t *testing.T, h http.Handler, method, path string, body any) *httptest.ResponseRecorder {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	req := httptest.NewRequest(method, path, &buf)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// TestHTTPDeviceLifecycle walks the registry API end to end: batch
// register, list, get, delete, and the error statuses.
func TestHTTPDeviceLifecycle(t *testing.T) {
	s, err := New(Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()

	rec := doJSON(t, h, "POST", "/v1/devices", registerRequest{Spec: "health", Count: 3})
	if rec.Code != http.StatusCreated {
		t.Fatalf("batch register: %d %s", rec.Code, rec.Body)
	}
	var created []DeviceState
	if err := json.Unmarshal(rec.Body.Bytes(), &created); err != nil || len(created) != 3 {
		t.Fatalf("batch register body: %v %s", err, rec.Body)
	}

	rec = doJSON(t, h, "POST", "/v1/devices", registerRequest{ID: "gh-1", Spec: "greenhouse"})
	if rec.Code != http.StatusCreated {
		t.Fatalf("register: %d %s", rec.Code, rec.Body)
	}
	if rec = doJSON(t, h, "POST", "/v1/devices", registerRequest{ID: "gh-1", Spec: "greenhouse"}); rec.Code != http.StatusConflict {
		t.Errorf("duplicate id: %d, want 409", rec.Code)
	}
	if rec = doJSON(t, h, "POST", "/v1/devices", registerRequest{Spec: "nope"}); rec.Code != http.StatusBadRequest {
		t.Errorf("unknown spec: %d, want 400", rec.Code)
	}
	if rec = doJSON(t, h, "POST", "/v1/devices", registerRequest{ID: "x", Spec: "health", Count: 2}); rec.Code != http.StatusBadRequest {
		t.Errorf("count with explicit id: %d, want 400", rec.Code)
	}

	rec = doJSON(t, h, "GET", "/v1/devices", nil)
	var list []DeviceState
	if err := json.Unmarshal(rec.Body.Bytes(), &list); err != nil || len(list) != 4 {
		t.Fatalf("list: %v %s", err, rec.Body)
	}

	if _, err := s.StepOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	rec = doJSON(t, h, "GET", "/v1/devices/gh-1", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("get: %d", rec.Code)
	}
	var st DeviceState
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Steps != 1 || st.Shard < 0 || st.LastDigest == strings.Repeat("0", 16) {
		t.Errorf("live state after a step: %+v", st)
	}

	if rec = doJSON(t, h, "DELETE", "/v1/devices/gh-1", nil); rec.Code != http.StatusNoContent {
		t.Errorf("delete: %d", rec.Code)
	}
	if rec = doJSON(t, h, "GET", "/v1/devices/gh-1", nil); rec.Code != http.StatusNotFound {
		t.Errorf("get after delete: %d, want 404", rec.Code)
	}
	if rec = doJSON(t, h, "DELETE", "/v1/devices/gh-1", nil); rec.Code != http.StatusNotFound {
		t.Errorf("double delete: %d, want 404", rec.Code)
	}
}

// TestHTTPRegisterRejectsHugeCount: a count from the request body must not
// size an allocation. An absurd count is a 400, not a makeslice panic, and
// registers nothing.
func TestHTTPRegisterRejectsHugeCount(t *testing.T) {
	if maxRegisterCount < 1024 {
		t.Fatalf("maxRegisterCount %d is below the 1024-device batches clients send", maxRegisterCount)
	}
	s, err := New(Config{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	for _, body := range []string{
		`{"spec":"health","count":9000000000000000000}`,
		fmt.Sprintf(`{"spec":"health","count":%d}`, maxRegisterCount+1),
	} {
		req := httptest.NewRequest("POST", "/v1/devices", strings.NewReader(body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%s)", body, rec.Code, rec.Body)
		}
		if n := s.DeviceCount(); n != 0 {
			t.Errorf("%s: registered %d devices, want 0", body, n)
		}
	}
}

// TestHTTPIngestAndBackpressure checks the batch endpoint's status mapping,
// including 429 + Retry-After on a full queue.
func TestHTTPIngestAndBackpressure(t *testing.T) {
	s, err := New(Config{QueueDepth: 1, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	if rec := doJSON(t, h, "POST", "/v1/devices", registerRequest{ID: "d", Spec: "health"}); rec.Code != http.StatusCreated {
		t.Fatal(rec.Body.String())
	}

	ev := Event{Device: "d", Kind: "start", Task: "send"}
	rec := doJSON(t, h, "POST", "/v1/events:batch", batchRequest{Events: []Event{ev}})
	if rec.Code != http.StatusOK {
		t.Fatalf("ingest: %d %s", rec.Code, rec.Body)
	}
	rec = doJSON(t, h, "POST", "/v1/events:batch", batchRequest{Events: []Event{ev}})
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("overflow: %d, want 429", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	var res struct {
		IngestResult
		Error string `json:"error"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	if res.Rejected != 1 || res.Error == "" {
		t.Errorf("429 body: %+v", res)
	}
	if rec = doJSON(t, h, "POST", "/v1/events:batch", batchRequest{Events: []Event{{Device: "ghost", Kind: "start", Task: "t"}}}); rec.Code != http.StatusNotFound {
		t.Errorf("unknown device: %d, want 404", rec.Code)
	}
	if rec = doJSON(t, h, "POST", "/v1/events:batch", batchRequest{Events: []Event{{Device: "d", Kind: "tick", Task: "t"}}}); rec.Code != http.StatusBadRequest {
		t.Errorf("bad kind: %d, want 400", rec.Code)
	}
}

// TestHTTPObservability scrapes /metrics, /healthz, and the dashboard after
// a step and checks the serving-layer series are present and live.
func TestHTTPObservability(t *testing.T) {
	s, err := New(Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	if rec := doJSON(t, h, "POST", "/v1/devices", registerRequest{Spec: "health", Count: 4}); rec.Code != http.StatusCreated {
		t.Fatal(rec.Body.String())
	}
	if _, err := s.StepOnce(context.Background()); err != nil {
		t.Fatal(err)
	}

	rec := doJSON(t, h, "GET", "/metrics", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("metrics: %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != telemetry.MetricsContentType {
		t.Errorf("metrics Content-Type %q", ct)
	}
	body := rec.Body.String()
	for _, want := range []string{
		"artemis_fleetserver_devices 4",
		"artemis_fleetserver_steps_total 1",
		"artemis_fleetserver_reshards_total 1",
		"artemis_fleetserver_step_latency_seconds_count 1",
		`artemis_fleet_shard_devices{shard="0"} 2`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q:\n%s", want, body)
		}
	}

	rec = doJSON(t, h, "GET", "/healthz", nil)
	var hb statusResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &hb); err != nil {
		t.Fatal(err)
	}
	if hb.Status != "ok" || hb.Devices != 4 || hb.Steps != 1 {
		t.Errorf("healthz: %+v", hb)
	}

	rec = doJSON(t, h, "GET", "/", nil)
	if rec.Code != http.StatusOK || !strings.Contains(rec.Header().Get("Content-Type"), "text/html") {
		t.Fatalf("dashboard: %d %s", rec.Code, rec.Header().Get("Content-Type"))
	}
	if page := rec.Body.String(); !strings.Contains(page, "artemis-fleet") || !strings.Contains(page, "health-1") {
		t.Error("dashboard missing fleet content")
	}
	// Unknown paths don't fall through to the dashboard.
	if rec = doJSON(t, h, "GET", "/nope", nil); rec.Code != http.StatusNotFound {
		t.Errorf("unknown path: %d, want 404", rec.Code)
	}
}
