package fleetserver

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

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

// TestHTTPRejectsOversizedBody: a body over maxBodyBytes is a 413 on both
// POST endpoints, and a registration carrying one registers nothing.
func TestHTTPRejectsOversizedBody(t *testing.T) {
	s, err := New(Config{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	huge := strings.Repeat("x", 2<<20)
	for path, body := range map[string]any{
		"/v1/devices":      registerRequest{ID: huge, Spec: "health"},
		"/v1/events:batch": batchRequest{Events: []Event{{Device: huge, Kind: "start", Task: "send"}}},
	} {
		if rec := doJSON(t, h, "POST", path, body); rec.Code != http.StatusRequestEntityTooLarge {
			t.Errorf("POST %s with a 2 MiB body: status %d, want 413", path, rec.Code)
		}
	}
	if n := s.DeviceCount(); n != 0 {
		t.Errorf("registered %d devices from an oversized body, want 0", n)
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

// TestHTTPRegisterBatchAtomic races Shutdown against a maximal batch
// registration: the batch is registered whole (201) or not at all (503),
// never cut short with part of it left behind.
func TestHTTPRegisterBatchAtomic(t *testing.T) {
	for i := 0; i < 10; i++ {
		s, err := New(Config{})
		if err != nil {
			t.Fatal(err)
		}
		req := httptest.NewRequest("POST", "/v1/devices",
			strings.NewReader(fmt.Sprintf(`{"spec":"health","count":%d}`, maxRegisterCount)))
		h := s.Handler()
		done := make(chan int)
		go func() {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			done <- rec.Code
		}()
		if i%2 == 1 {
			// Let the batch start before shutting down.
			for s.DeviceCount() == 0 {
				runtime.Gosched()
			}
		}
		if err := s.Shutdown(context.Background()); err != nil {
			t.Fatal(err)
		}
		code := <-done
		n := s.DeviceCount()
		if !(code == http.StatusCreated && n == maxRegisterCount) && !(code == http.StatusServiceUnavailable && n == 0) {
			t.Fatalf("round %d: status %d with %d devices registered; want 201 with %d or 503 with 0",
				i, code, n, maxRegisterCount)
		}
	}
}

// TestRetryAfterSeconds checks the 429 hint never undershoots the step
// interval: it rounds up to whole seconds, with a floor of one.
func TestRetryAfterSeconds(t *testing.T) {
	for _, c := range []struct {
		interval time.Duration
		want     int
	}{
		{10 * time.Millisecond, 1},
		{time.Second, 1},
		{1500 * time.Millisecond, 2},
		{2 * time.Second, 2},
	} {
		if got := retryAfterSeconds(Config{StepInterval: c.interval}); got != c.want {
			t.Errorf("interval %v: Retry-After %d, want %d", c.interval, got, c.want)
		}
	}
}

// TestHTTPIngestUnknownTask checks an event naming a task the device's
// graph does not have is a bad batch: 400, rejected, and nothing queued,
// while an unknown device still answers 404. Camera builds its graph per
// run, so its task names come from a throwaway build at Compile.
func TestHTTPIngestUnknownTask(t *testing.T) {
	s, err := New(Config{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	for _, spec := range []string{"health", "camera"} {
		if rec := doJSON(t, h, "POST", "/v1/devices", registerRequest{ID: spec, Spec: spec}); rec.Code != http.StatusCreated {
			t.Fatal(rec.Body.String())
		}
	}
	rec := doJSON(t, h, "POST", "/v1/events:batch", batchRequest{Events: []Event{
		{Device: "health", Kind: "start", Task: "send"},
		{Device: "health", Kind: "start", Task: "no-such-task"},
	}})
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("unknown task: %d, want 400 (%s)", rec.Code, rec.Body)
	}
	var res IngestResult
	if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	if res.Accepted != 1 || res.Rejected != 1 {
		t.Errorf("accepted/rejected = %d/%d, want 1/1", res.Accepted, res.Rejected)
	}
	if st, _ := s.Device("health"); st.QueueDepth != 1 {
		t.Errorf("queue depth %d after the rejected event, want 1", st.QueueDepth)
	}
	if rec := doJSON(t, h, "POST", "/v1/events:batch", batchRequest{Events: []Event{{Device: "ghost", Kind: "start", Task: "no-such-task"}}}); rec.Code != http.StatusNotFound {
		t.Errorf("unknown device and task: %d, want 404", rec.Code)
	}
	if _, err := s.Ingest([]Event{{Device: "camera", Kind: "start", Task: "send"}}); !errors.Is(err, ErrUnknownTask) {
		t.Errorf("camera has no send task: %v, want ErrUnknownTask", err)
	}
	if rec := doJSON(t, h, "POST", "/v1/events:batch", batchRequest{Events: []Event{{Device: "camera", Kind: "end", Task: "capture"}}}); rec.Code != http.StatusOK {
		t.Errorf("camera task: %d, want 200 (%s)", rec.Code, rec.Body)
	}
	if _, err := s.StepOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	if st, _ := s.Device("camera"); st.EventsDelivered != 1 {
		t.Errorf("camera delivered %d events, want 1", st.EventsDelivered)
	}
}
