// Package monitor executes the generated application-specific monitors
// (§3.3, §4.2): it keeps every state machine's variables and current state
// in non-volatile memory, delivers the runtime's startTask/endTask events to
// them, and arbitrates the corrective actions they signal.
//
// Power-failure resilience follows §4.2.3 but with a commit-based twist that
// the FRAM substrate makes natural: each machine's entire configuration
// (state index, variables, last-processed event sequence number, and the
// verdict it produced) lives in one two-phase-committed region. Processing
// an event stages the new configuration and commits it atomically, so a
// power failure at any instant leaves the machine either entirely before or
// entirely after the event. Because the runtime re-delivers the in-flight
// event after a reboot (monitorFinalize, Figure 8), and machines that
// already committed recognise the event's sequence number and simply return
// their stored verdict, event processing is exactly-once for every machine
// — the property the paper obtains with ImmortalThreads local continuations.
package monitor

import (
	"fmt"

	"github.com/tinysystems/artemis-go/internal/ir"
	"github.com/tinysystems/artemis-go/internal/nvm"
)

// maxVerdicts bounds the failures one machine may emit per event. The
// Figure-7 templates emit at most one; the layout reserves room for four so
// hand-written IR machines have headroom.
const maxVerdicts = 4

// Persistent region layout, in 8-byte words:
//
//	word 0                 state index
//	word 1                 last processed event sequence number
//	word 2                 verdict count of the last processed event
//	words 3 .. 3+2·max-1   (action, path) verdict pairs
//	words 3+2·max ..       machine variables, in declaration order
const (
	wordState    = 0
	wordLastSeq  = 1
	wordVerdicts = 2
	wordVerdict0 = 3
	wordVars     = wordVerdict0 + 2*maxVerdicts
)

// persistentEnv is an ir.Env whose state lives in a committed NVM region.
// Variable slots are declaration-order word indices resolved by a linear
// scan of the machine's (small, fixed) variable list: the compiled engine
// never looks a name up (it pre-resolves indices through codegen.Slots),
// and the scans serve only inspection, OTA state migration and the
// interpreter reference in tests — so construction of a deployment
// allocates no map.
type persistentEnv struct {
	c *nvm.Committed
	m *ir.Machine
}

// init allocates the env's committed region; persistentEnv is embedded by
// value in Monitor, so initialisation is in-place rather than by
// constructor.
func (e *persistentEnv) init(mem *nvm.Memory, owner string, m *ir.Machine) error {
	words := wordVars + len(m.Vars)
	c, err := nvm.AllocCommitted(mem, owner, m.Name, words*8)
	if err != nil {
		return err
	}
	e.c, e.m = c, m
	return nil
}

// varIdx resolves a variable name to its declaration index, or -1.
func (e *persistentEnv) varIdx(name string) int {
	for i := range e.m.Vars {
		if e.m.Vars[i].Name == name {
			return i
		}
	}
	return -1
}

func (e *persistentEnv) word(i int) uint64       { return e.c.ReadUint64(i * 8) }
func (e *persistentEnv) setWord(i int, v uint64) { e.c.WriteUint64(i*8, v) }

// GetVar implements ir.Env.
func (e *persistentEnv) GetVar(name string) (ir.Value, bool) {
	i := e.varIdx(name)
	if i < 0 {
		return ir.Value{}, false
	}
	v, err := ir.Decode(e.m.Vars[i].Type, e.word(wordVars+i))
	if err != nil {
		return ir.Value{}, false
	}
	return v, true
}

// SetVar implements ir.Env; writes are staged until commit.
func (e *persistentEnv) SetVar(name string, v ir.Value) error {
	i := e.varIdx(name)
	if i < 0 {
		return fmt.Errorf("monitor: machine %s has no variable %q", e.m.Name, name)
	}
	bits, err := v.Encode()
	if err != nil {
		return fmt.Errorf("monitor: machine %s variable %q: %w", e.m.Name, name, err)
	}
	e.setWord(wordVars+i, bits)
	return nil
}

// State implements ir.Env.
func (e *persistentEnv) State() int { return int(int64(e.word(wordState))) }

// SetState implements ir.Env.
func (e *persistentEnv) SetState(i int) { e.setWord(wordState, uint64(int64(i))) }

func (e *persistentEnv) lastSeq() uint64       { return e.word(wordLastSeq) }
func (e *persistentEnv) setLastSeq(seq uint64) { e.setWord(wordLastSeq, seq) }

func (e *persistentEnv) storedVerdicts() []ir.Failure {
	n := int(e.word(wordVerdicts))
	if n > maxVerdicts {
		n = maxVerdicts
	}
	out := make([]ir.Failure, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, ir.Failure{
			Machine: e.m.Name,
			Action:  actionFromWord(e.word(wordVerdict0 + 2*i)),
			Path:    int(int64(e.word(wordVerdict0 + 2*i + 1))),
		})
	}
	return out
}

func (e *persistentEnv) storeVerdicts(fs []ir.Failure) error {
	if len(fs) > maxVerdicts {
		return fmt.Errorf("monitor: machine %s emitted %d failures for one event (max %d)",
			e.m.Name, len(fs), maxVerdicts)
	}
	e.setWord(wordVerdicts, uint64(len(fs)))
	for i, f := range fs {
		e.setWord(wordVerdict0+2*i, uint64(int64(f.Action)))
		e.setWord(wordVerdict0+2*i+1, uint64(int64(f.Path)))
	}
	return nil
}

// reset stages and commits the machine's initial configuration. A full
// reset (first-boot initialisation) also clears the event-replay bookkeeping;
// a partial reset (path re-initialisation) preserves it, so that a crash
// between a path-restart decision and its commit replays to the same
// verdicts instead of re-stepping freshly reset machines.
func (e *persistentEnv) reset(full bool) {
	ir.ResetEnv(e.m, e)
	if full {
		e.setLastSeq(0)
		e.setWord(wordVerdicts, 0)
	}
	e.c.Commit()
}

// rollback discards staged writes after a power failure.
func (e *persistentEnv) rollback() { e.c.Reopen() }

// codegen.Slots implementation. Compiled machines step directly over the
// committed region with pre-resolved word indices — no name lookups, no
// Value round-trips — while writing the exact bytes SetVar/SetState would:
// both paths stage into the same region and only Commit persists, so the
// NVM image is bit-identical whichever engine stepped the machine.

// StateIdx implements codegen.Slots.
func (e *persistentEnv) StateIdx() int { return int(int64(e.word(wordState))) }

// SetStateIdx implements codegen.Slots.
func (e *persistentEnv) SetStateIdx(i int) { e.setWord(wordState, uint64(int64(i))) }

// VarWord implements codegen.Slots; i is the declaration-order variable index.
func (e *persistentEnv) VarWord(i int) uint64 { return e.word(wordVars + i) }

// SetVarWord implements codegen.Slots.
func (e *persistentEnv) SetVarWord(i int, w uint64) { e.setWord(wordVars+i, w) }
