package dejavuzz

import (
	"encoding/json"
	"fmt"
	"os"

	"dejavuzz/internal/atomicfile"
	"dejavuzz/internal/core"
)

// Checkpoint is a resumable mid-campaign snapshot, taken at a merge
// barrier. It round-trips losslessly through JSON (Save/LoadCheckpoint),
// and a campaign resumed from it finishes with results identical — modulo
// wall-clock fields — to an uninterrupted run of the same options.
type Checkpoint struct {
	state *core.EngineState
}

// Target returns the checkpointed campaign's target name.
func (c *Checkpoint) Target() string { return c.state.Options.Target }

// Progress returns completed and total campaign iterations.
func (c *Checkpoint) Progress() (done, total int) {
	return c.state.NextIter, c.state.Options.Iterations
}

// MarshalJSON serialises the engine snapshot (core.EngineState.MarshalJSON,
// already compact).
func (c *Checkpoint) MarshalJSON() ([]byte, error) { return c.state.MarshalJSON() }

// UnmarshalJSON restores the engine snapshot.
func (c *Checkpoint) UnmarshalJSON(data []byte) error {
	st := &core.EngineState{}
	if err := json.Unmarshal(data, st); err != nil {
		return err
	}
	c.state = st
	return nil
}

// Save atomically writes the checkpoint to path (write temp + rename), so
// an interrupted save never truncates a previously saved checkpoint.
func (c *Checkpoint) Save(path string) error {
	// The bytes are MarshalJSON's, written as the encoder's pieces without
	// joining them. A snapshot taken by a campaign encodes only the
	// iteration and finding records no earlier save of that campaign
	// encoded, so saving at every barrier costs encoding linear in the
	// campaign; the file itself still restates the whole history.
	pieces, err := c.state.JSONPieces()
	if err != nil {
		return fmt.Errorf("dejavuzz: encode checkpoint: %w", err)
	}
	if err := atomicfile.Write(path, pieces...); err != nil {
		return fmt.Errorf("dejavuzz: write checkpoint: %w", err)
	}
	return nil
}

// LoadCheckpoint reads a checkpoint previously written by Save (or by a
// session's WithCheckpointFile autosave).
func LoadCheckpoint(path string) (*Checkpoint, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("dejavuzz: read checkpoint: %w", err)
	}
	// One pass: UnmarshalJSON validates and decodes, where json.Unmarshal
	// would validate and skip the bytes before calling it.
	ck := &Checkpoint{}
	if err := ck.UnmarshalJSON(data); err != nil {
		return nil, fmt.Errorf("dejavuzz: parse checkpoint %s: %w", path, err)
	}
	// Engine states always carry a resolved target; its absence means the
	// file is some other JSON artifact, not a session checkpoint.
	if ck.state.Options.Target == "" {
		return nil, fmt.Errorf("dejavuzz: %s is not a session checkpoint (no target)", path)
	}
	// Only the current engine-state version is accepted; older or newer
	// snapshots are refused here, naming the version.
	if err := ck.state.Migrate(); err != nil {
		return nil, fmt.Errorf("dejavuzz: checkpoint %s: %w", path, err)
	}
	return ck, nil
}
