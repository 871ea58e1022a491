// Package camera is a second full application beyond the paper's benchmark:
// a Camaroptera-class batteryless remote camera (Desai et al., TECS'22 —
// cited by the paper's introduction as a motivating platform). The node
// wakes on motion, captures a greyscale frame, compresses it into chunks,
// classifies it, and trickles the chunks out over the radio — the classic
// capture-is-cheap/transmit-is-precious intermittent pipeline.
//
//	Path 1: detect → capture → compress            (frame acquisition)
//	Path 2: classify → sendChunk                   (inference + uplink)
//
// It exercises the parts of the framework the health benchmark does not:
// Chain-style channels carry the compressed chunks across paths with
// task-boundary commit, the §4.2.2 minEnergy property refuses to start a
// camera capture the capacitor cannot finish, and chunked transmission
// drains the channel across rounds.
package camera

import (
	"fmt"

	"github.com/tinysystems/artemis-go/internal/nvm"
	"github.com/tinysystems/artemis-go/internal/spec"
	"github.com/tinysystems/artemis-go/internal/task"
	"github.com/tinysystems/artemis-go/internal/transform"
)

// ChunkCap is the channel capacity: the most compressed chunks one frame
// yields.
const ChunkCap = 6

// SpecSource is the application's property specification. The capture task
// carries the §4.2.2 energy precondition: a camera operation draws ~950 µJ,
// so starting one with less than 1000 µJ banked only wastes the charge —
// the property skips acquisition and the round serves the chunk backlog
// instead. No collect property guards sendChunk: the channel is the data
// dependency here, and an empty channel is a legitimate state (a skipped
// capture round), handled in-task rather than by restarting the path.
const SpecSource = `
detect {
    maxTries: 10 onFail: skipPath;
}

capture {
    minEnergy: 1000uJ onFail: skipPath;
    maxTries: 6 onFail: skipPath;
}

sendChunk {
    maxDuration: 300ms onFail: skipTask;
}
`

// Keys returns the store slots the application needs.
func Keys() []string {
	return []string{"motion", "frames", "chunksMade", "chunksSent", "classification"}
}

// App is one camera-node instance: graph plus the chunk channel.
type App struct {
	Graph  *task.Graph
	Chunks *task.Channel
}

// New builds the application against the given memory (the channel needs
// NVM). chunksPerFrame controls how much data one capture produces.
func New(mem *nvm.Memory, chunksPerFrame int) (*App, error) {
	if chunksPerFrame <= 0 || chunksPerFrame > ChunkCap {
		return nil, fmt.Errorf("camera: chunksPerFrame must be in 1..%d, got %d", ChunkCap, chunksPerFrame)
	}
	chunks, err := task.NewChannel(mem, "app", "chunks", ChunkCap)
	if err != nil {
		return nil, err
	}
	a := &App{Chunks: chunks}

	detect := &task.Task{
		Name:        "detect",
		Cycles:      1500,
		Peripherals: []string{"pir"},
		Run: func(c *task.Ctx) error {
			c.Set("motion", 1) // the PIR sensor reports motion
			return nil
		},
	}
	capture := &task.Task{
		Name:        "capture",
		Cycles:      6000,
		Peripherals: []string{"cam"},
		Run: func(c *task.Ctx) error {
			c.Add("frames", 1)
			return nil
		},
	}
	compress := &task.Task{
		Name:   "compress",
		Cycles: 120_000, // JPEG-ish compression is CPU-heavy
		Run: func(c *task.Ctx) error {
			frame := c.Get("frames")
			for i := 0; i < chunksPerFrame; i++ {
				// Chunk identity encodes frame and index, so tests can
				// verify exactly-once delivery across power failures.
				a.Chunks.PushEvict(frame*100 + float64(i))
			}
			c.Add("chunksMade", float64(chunksPerFrame))
			return nil
		},
	}
	classify := &task.Task{
		Name:   "classify",
		Cycles: 60_000,
		Run: func(c *task.Ctx) error {
			if c.Get("frames") > 0 {
				c.Set("classification", 1) // "animal present"
			}
			return nil
		},
	}
	sendChunk := &task.Task{
		Name:        "sendChunk",
		Cycles:      2000,
		Peripherals: []string{"ble"},
		Run: func(c *task.Ctx) error {
			if _, ok := a.Chunks.Pop(); ok {
				c.Add("chunksSent", 1)
			}
			return nil
		},
	}

	g, err := task.NewGraph(
		&task.Path{ID: 1, Tasks: []*task.Task{detect, capture, compress}},
		&task.Path{ID: 2, Tasks: []*task.Task{classify, sendChunk}},
	)
	if err != nil {
		return nil, err
	}
	a.Graph = g
	return a, nil
}

// Compile lowers the specification against this app's graph.
func (a *App) Compile() (*transform.Result, error) {
	s, err := spec.Parse(SpecSource)
	if err != nil {
		return nil, err
	}
	return transform.Compile(s, transform.Options{Graph: a.Graph, DataVars: Keys()})
}
