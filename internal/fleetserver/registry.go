package fleetserver

import (
	"fmt"
	"maps"
	"sort"

	"github.com/tinysystems/artemis-go/internal/fleet"
)

// device is one registered fleet member. The embedded fleet.Device is what
// the engine steps: its Name (the id) and Spec are immutable, and its
// Events and outcome fields belong to the step in flight — the server
// touches them only between steps. Everything else is guarded by
// Server.mu.
type device struct {
	fleet.Device

	// queue holds ingested events awaiting the next step (bounded by
	// Config.QueueDepth). A step takes the whole queue when it starts;
	// events ingested during a step wait for the next one.
	queue []fleet.Event
	// taken is the queue the step in flight took; a failed step puts it
	// back at the queue's front, which can leave the queue above
	// Config.QueueDepth until the next step drains it.
	taken []fleet.Event
	// stepping marks membership in the step in flight; delete
	// acknowledgement waits on it.
	stepping bool
	// stats accumulates across steps; folded in after each step.
	stats deviceStats
}

// deviceStats is a device's cumulative monitoring state.
type deviceStats struct {
	// shard is where the device last ran, -1 before its first step.
	shard           int
	steps           uint64
	completed       uint64
	nonTerminated   uint64
	reboots         uint64
	energyUJ        float64
	eventsDelivered uint64
	violations      map[string]uint64
	fsm             map[string]string
	lastDigest      uint64
}

// DeviceState is the JSON view of one device served by the registry API.
type DeviceState struct {
	ID   string `json:"id"`
	Spec string `json:"spec"`
	// Shard is the shard the device last ran on (-1 before its first
	// step).
	Shard int `json:"shard"`
	// Steps counts completed device runs; Completed and NonTerminated
	// partition their outcomes.
	Steps         uint64 `json:"steps"`
	Completed     uint64 `json:"completed"`
	NonTerminated uint64 `json:"nonTerminated"`
	// Reboots totals power failures survived; EnergyUJ the supply energy
	// drained, in microjoules.
	Reboots  uint64  `json:"reboots"`
	EnergyUJ float64 `json:"energyUJ"`
	// EventsDelivered counts ingested events delivered to the device's
	// monitors; QueueDepth is the backlog awaiting the next step.
	EventsDelivered uint64 `json:"eventsDelivered"`
	QueueDepth      int    `json:"queueDepth"`
	// Violations counts corrective verdicts by action (run decisions plus
	// verdicts from ingested events); FSM maps each monitor machine to its
	// state at the end of the device's last step.
	Violations map[string]uint64 `json:"violations,omitempty"`
	FSM        map[string]string `json:"fsm,omitempty"`
	// LastDigest is the device's outcome digest from its last step
	// (hex; scheduling-independent).
	LastDigest string `json:"lastDigest"`
}

// fold adds the outcome of the device's last step to its cumulative state;
// caller holds s.mu, with no step in flight.
func (d *device) fold() {
	st := &d.stats
	st.shard = d.Shard
	st.steps++
	if d.Completed {
		st.completed++
	}
	if d.NonTerminated {
		st.nonTerminated++
	}
	st.reboots += d.Reboots
	st.energyUJ += d.EnergyUJ
	st.eventsDelivered += d.Delivered
	for k, v := range d.Verdicts {
		st.violations[k] += v
	}
	clear(st.fsm)
	maps.Copy(st.fsm, d.FSM)
	st.lastDigest = d.Digest
}

// stateLocked renders the JSON view; caller holds s.mu.
func (d *device) stateLocked() DeviceState {
	st := DeviceState{
		ID: d.Name, Spec: d.Spec.Name, Shard: d.stats.shard,
		Steps: d.stats.steps, Completed: d.stats.completed,
		NonTerminated: d.stats.nonTerminated, Reboots: d.stats.reboots,
		EnergyUJ:        d.stats.energyUJ,
		EventsDelivered: d.stats.eventsDelivered,
		QueueDepth:      len(d.queue),
		LastDigest:      fmt.Sprintf("%016x", d.stats.lastDigest),
	}
	if len(d.stats.violations) > 0 {
		st.Violations = make(map[string]uint64, len(d.stats.violations))
		for k, v := range d.stats.violations {
			st.Violations[k] = v
		}
	}
	if len(d.stats.fsm) > 0 {
		st.FSM = make(map[string]string, len(d.stats.fsm))
		for k, v := range d.stats.fsm {
			st.FSM[k] = v
		}
	}
	return st
}

// Register creates a device running the named example spec and returns its
// state. An empty id generates "<spec>-<n>"; a duplicate id is an error.
// Registration bumps the membership generation, so the next step's digest
// starts afresh.
func (s *Server) Register(id, spec string) (DeviceState, error) {
	states, err := s.register(id, spec, 1)
	if err != nil {
		return DeviceState{}, err
	}
	return states[0], nil
}

// register creates count devices of one spec under one lock hold and one
// generation bump, so a batch is registered whole or not at all. A
// non-empty id names the only device of a batch of one.
func (s *Server) register(id, spec string, count int) ([]DeviceState, error) {
	sp, ok := s.specs[spec]
	if !ok {
		return nil, fmt.Errorf("%w: %q (have %v)", ErrUnknownSpec, spec, s.specNames)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	if _, taken := s.devices[id]; taken {
		return nil, fmt.Errorf("%w: %q", ErrDuplicateID, id)
	}
	states := make([]DeviceState, count)
	for i := range states {
		name := id
		if name == "" {
			for {
				s.nextID++
				name = fmt.Sprintf("%s-%d", spec, s.nextID)
				if _, taken := s.devices[name]; !taken {
					break
				}
			}
		}
		d := &device{
			Device: fleet.Device{Name: name, Spec: sp},
			stats:  deviceStats{shard: -1, violations: map[string]uint64{}, fsm: map[string]string{}},
		}
		s.devices[name] = d
		s.order = append(s.order, d)
		states[i] = d.stateLocked()
	}
	s.gen++
	s.cond.Broadcast() // wake a loop idling on an empty registry
	return states, nil
}

// Unregister deletes a device. It returns only once the device can no
// longer be stepped: if the step in flight holds it, the call waits for
// that step to finish, so a caller observing the acknowledgement never sees
// a later step touch it.
func (s *Server) Unregister(id string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	d, ok := s.devices[id]
	if !ok {
		return ErrNotFound
	}
	delete(s.devices, id)
	for i, od := range s.order {
		if od == d {
			s.order = append(s.order[:i], s.order[i+1:]...)
			break
		}
	}
	s.gen++
	for d.stepping {
		s.cond.Wait()
	}
	return nil
}

// Device returns one device's state.
func (s *Server) Device(id string) (DeviceState, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	d, ok := s.devices[id]
	if !ok {
		return DeviceState{}, ErrNotFound
	}
	return d.stateLocked(), nil
}

// Devices lists every device's state in registration order.
func (s *Server) Devices() []DeviceState {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]DeviceState, 0, len(s.order))
	for _, d := range s.order {
		out = append(out, d.stateLocked())
	}
	return out
}

// DeviceCount returns the number of registered devices.
func (s *Server) DeviceCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.devices)
}

// SpecNames lists the example specs devices can be registered with.
func (s *Server) SpecNames() []string { return append([]string(nil), s.specNames...) }

// sortSpecNames keeps the error/UI listing stable.
func sortSpecNames(names []string) []string {
	sort.Strings(names)
	return names
}
