package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/tinysystems/artemis-go/internal/core"
	"github.com/tinysystems/artemis-go/internal/examplespecs"
	"github.com/tinysystems/artemis-go/internal/fleetserver"
)

// registerChunk is the count of one POST /v1/devices. Specs take turns in
// chunks, so the server's contiguous-block shards get the same mix.
const registerChunk = 8

// specInfo is what the harness learns about an example spec from its
// Config: whether events can be injected (ARTEMIS runtime with a task
// graph) and which task names an event may carry.
type specInfo struct {
	name       string
	injectable bool
	tasks      []string
}

func probeSpecs(cases []examplespecs.Case) ([]specInfo, error) {
	out := make([]specInfo, 0, len(cases))
	for _, c := range cases {
		cfg, err := c.Config()
		if err != nil {
			return nil, fmt.Errorf("probe %s: %w", c.Name, err)
		}
		info := specInfo{name: c.Name}
		if cfg.System == core.Artemis && cfg.Graph != nil {
			info.injectable = true
			info.tasks = cfg.Graph.TaskNames()
			sort.Strings(info.tasks)
		}
		out = append(out, info)
	}
	return out, nil
}

func injectableOnly(specs []specInfo) []specInfo {
	var out []specInfo
	for _, s := range specs {
		if s.injectable {
			out = append(out, s)
		}
	}
	return out
}

// rng is a seeded xorshift64* stream, so inputs depend only on the seed.
type rng struct{ s uint64 }

func newRNG(seed uint64) *rng {
	// splitmix64 the seed so nearby seeds give unrelated streams.
	z := seed + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	if z == 0 {
		z = 1
	}
	return &rng{z}
}

func (r *rng) next() uint64 {
	r.s ^= r.s >> 12
	r.s ^= r.s << 25
	r.s ^= r.s >> 27
	return r.s * 2685821657736338717
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// fleetDevice is one registered device as the harness sees it.
type fleetDevice struct {
	id   string
	spec *specInfo
}

// event draws one seeded event for a device.
func (r *rng) event(d fleetDevice) fleetserver.Event {
	kind := "start"
	if r.next()&1 == 1 {
		kind = "end"
	}
	return fleetserver.Event{Device: d.id, Kind: kind, Task: d.spec.tasks[r.intn(len(d.spec.tasks))],
		Data: float64(r.intn(1000)) / 10}
}

func batchBody(events []fleetserver.Event) []byte {
	b, err := json.Marshal(struct {
		Events []fleetserver.Event `json:"events"`
	}{events})
	if err != nil {
		panic(err) // strings and finite floats always encode
	}
	return b
}

// loopback serves a fleet server's HTTP API on a loopback port.
type loopback struct {
	srv  *fleetserver.Server
	hs   *http.Server
	base string
	done chan error

	once   sync.Once
	closed error
}

func serve(srv *fleetserver.Server) (*loopback, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l := &loopback{srv: srv, hs: &http.Server{Handler: srv.Handler()}, base: "http://" + ln.Addr().String(),
		done: make(chan error, 1)}
	go func() { l.done <- l.hs.Serve(ln) }()
	return l, nil
}

// close shuts the fleet server down (draining queued events) and then the
// HTTP server, and waits for both. Later calls return the first result.
func (l *loopback) close() error {
	l.once.Do(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		err := l.srv.Shutdown(ctx)
		if herr := l.hs.Shutdown(ctx); err == nil {
			err = herr
		}
		if serr := <-l.done; err == nil && !errors.Is(serr, http.ErrServerClosed) {
			err = serr
		}
		l.closed = err
	})
	return l.closed
}

// client is one keep-alive loopback connection.
type client struct {
	c    *http.Client
	base string
}

func newClient(base string) *client {
	return &client{base: base, c: &http.Client{Timeout: 60 * time.Second, Transport: &http.Transport{
		MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true,
	}}}
}

func (c *client) close() { c.c.CloseIdleConnections() }

// do sends one request and reads the whole response.
func (c *client) do(method, path string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// registerMix registers n devices through POST /v1/devices, specs taking
// turns in chunks of registerChunk. It returns the devices in registration
// order and each POST's time per device, in microseconds.
func registerMix(c *client, specs []specInfo, n int) ([]fleetDevice, []float64, error) {
	devs := make([]fleetDevice, 0, n)
	var perDevice []float64
	for i := 0; len(devs) < n; i++ {
		sp := &specs[i%len(specs)]
		k := min(registerChunk, n-len(devs))
		body := fmt.Sprintf(`{"spec":%q,"count":%d}`, sp.name, k)
		t0 := time.Now()
		code, resp, err := c.do("POST", "/v1/devices", []byte(body))
		el := time.Since(t0)
		if err != nil {
			return nil, nil, err
		}
		if code != http.StatusCreated {
			return nil, nil, fmt.Errorf("register %s: HTTP %d: %s", sp.name, code, resp)
		}
		var states []fleetserver.DeviceState
		if k == 1 {
			states = make([]fleetserver.DeviceState, 1)
			err = json.Unmarshal(resp, &states[0])
		} else {
			err = json.Unmarshal(resp, &states)
		}
		if err != nil || len(states) != k {
			return nil, nil, fmt.Errorf("register %s: %d devices in reply (%v)", sp.name, len(states), err)
		}
		for _, st := range states {
			devs = append(devs, fleetDevice{id: st.ID, spec: sp})
		}
		perDevice = append(perDevice, us(el)/float64(k))
	}
	return devs, perDevice, nil
}

// registerDirect registers the same sequence as registerMix through
// Server.Register, for the serial reference server.
func registerDirect(srv *fleetserver.Server, specs []specInfo, n int) error {
	for i, done := 0, 0; done < n; i++ {
		sp := specs[i%len(specs)]
		for k := min(registerChunk, n-done); k > 0; k-- {
			if _, err := srv.Register("", sp.name); err != nil {
				return err
			}
			done++
		}
	}
	return nil
}

// promValues reads the named unlabelled series from a Prometheus text
// exposition.
func promValues(text []byte, names ...string) (map[string]float64, error) {
	want := make(map[string]bool, len(names))
	for _, n := range names {
		want[n] = true
	}
	out := make(map[string]float64, len(names))
	sc := bufio.NewScanner(bytes.NewReader(text))
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok || !want[name] {
			continue
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return nil, fmt.Errorf("metric %s: %v", name, err)
		}
		out[name] = v
	}
	for _, n := range names {
		if _, ok := out[n]; !ok {
			return nil, fmt.Errorf("metric %s missing from scrape", n)
		}
	}
	return out, nil
}

const (
	mDelivered = "artemis_fleetserver_ingest_delivered_total"
	mAccepted  = "artemis_fleetserver_ingest_events_total"
	mRejected  = "artemis_fleetserver_ingest_rejected_total"
	mReshards  = "artemis_fleetserver_reshards_total"
	mStepSum   = "artemis_fleetserver_step_latency_seconds_sum"
	mStepCount = "artemis_fleetserver_step_latency_seconds_count"
)

// scrapeDirect renders the server's exposition without HTTP.
func scrapeDirect(srv *fleetserver.Server, names ...string) (map[string]float64, error) {
	var b bytes.Buffer
	if err := srv.WriteMetrics(&b); err != nil {
		return nil, err
	}
	return promValues(b.Bytes(), names...)
}

// setupFleet sets a fleet server up repeats times — fleetserver.New, HTTP
// registration of n devices, and the first StepOnce, which reshards —
// recording each setup's seconds in res.setup. It keeps the last server
// and returns it with its devices and each setup's first-step time (ms).
func setupFleet(cfg fleetserver.Config, specs []specInfo, n, repeats int, res *result) (*loopback, []fleetDevice, []float64, error) {
	var regUS, firstStep []float64
	for i := 0; ; i++ {
		t0 := time.Now()
		srv, err := fleetserver.New(cfg)
		if err != nil {
			return nil, nil, nil, err
		}
		l, err := serve(srv)
		if err != nil {
			return nil, nil, nil, err
		}
		c := newClient(l.base)
		devs, reg, err := registerMix(c, specs, n)
		c.close()
		if err != nil {
			l.close()
			return nil, nil, nil, err
		}
		ts := time.Now()
		if _, err := srv.StepOnce(context.Background()); err != nil {
			l.close()
			return nil, nil, nil, err
		}
		firstStep = append(firstStep, ms(time.Since(ts)))
		res.setup = append(res.setup, time.Since(t0).Seconds())
		regUS = append(regUS, reg...)
		if i == repeats-1 {
			res.layer["fleetserver.register_us"] = medianOf(regUS)
			return l, devs, firstStep, nil
		}
		if err := l.close(); err != nil {
			return nil, nil, nil, err
		}
	}
}
