package ccsp

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"github.com/congestedclique/ccsp/internal/snapshot"
)

// Save persists the engine - graph, normalized options, and every
// preprocessing artifact completed so far, with its round-stats - to w in
// the versioned, checksummed binary format of internal/snapshot
// (DESIGN.md §9). A LoadEngine of the written bytes answers every query
// with results and Stats identical to this engine, reports the same
// PreprocessStats, and re-Saves to byte-identical output.
//
// Save is safe to call concurrently with queries; artifacts whose builds
// are still in flight are not included (they will be rebuilt lazily by
// the loaded engine, preserving results).
func (e *Engine) Save(w io.Writer) error {
	snap := &snapshot.Snapshot{
		Graph: e.gr.g,
		Opts: snapshot.Options{
			Epsilon:   e.opts.Epsilon,
			Preset:    uint8(e.opts.Preset),
			MaxRounds: e.opts.MaxRounds,
			Workers:   e.opts.Workers,
			Exec:      uint8(e.opts.Execution),
			Epoch:     e.epoch,
		},
	}
	e.pre.mu.Lock()
	for _, key := range e.pre.order {
		ent := e.pre.arts[key]
		snap.Artifacts = append(snap.Artifacts, snapshot.Artifact{
			Variant: uint8(key.variant),
			Params:  key.params,
			Degs:    ent.degs,
			Stats:   toSnapStats(ent.stats),
			Art:     ent.art,
		})
	}
	e.pre.mu.Unlock()
	return snap.Encode(w)
}

// SaveFile writes the snapshot Save produces to path atomically: a temp
// file in path's directory, then a rename over path. A failed or
// interrupted save leaves the previous file at path untouched and no temp
// file behind.
func (e *Engine) SaveFile(path string) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".ccsp-snap-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // a no-op once the rename has moved it
	if err := e.Save(tmp); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// LoadEngine reconstructs an Engine from a snapshot written by Save: the
// graph, options and all persisted artifacts are rehydrated without any
// simulator run, so startup pays file I/O instead of hopset
// construction. The loaded engine answers queries byte-identically to the
// saved one (and to a freshly preprocessed engine on the same graph and
// options), and its PreprocessStats reports the original builds.
// Artifacts the snapshot does not contain are built lazily on first use,
// exactly as on a fresh engine.
//
// LoadEngine runs no simulation; ctx is part of the uniform ctx-first API
// and is honored at entry (a dead context returns ErrCanceled without
// touching r) so callers can gate snapshot restores like any other call.
//
// Corrupt, truncated or version-skewed input returns an error.
func LoadEngine(ctx context.Context, r io.Reader) (*Engine, error) {
	return loadEngine(ctx, r, false)
}

// LoadEngineDirect is LoadEngine with the engine switched to ExecDirect,
// whatever mode built the snapshot: the artifacts are the same bytes in
// both modes (DESIGN.md §12), so the direct kernels serve them as they
// are. Queries and DynamicEngine rebuilds run direct, while
// PreprocessStats still reports the original builds. This is how ccspd
// loads every snapshot.
func LoadEngineDirect(ctx context.Context, r io.Reader) (*Engine, error) {
	return loadEngine(ctx, r, true)
}

// loadEngine is the one body of LoadEngine and LoadEngineDirect.
func loadEngine(ctx context.Context, r io.Reader, direct bool) (*Engine, error) {
	if err := ctxErr(ctx); err != nil {
		return nil, fmt.Errorf("ccsp: load engine: %w", err)
	}
	snap, err := snapshot.Decode(r)
	if err != nil {
		return nil, err
	}
	if p := Preset(snap.Opts.Preset); p != PresetPractical && p != PresetPaper {
		return nil, fmt.Errorf("ccsp: snapshot has unknown preset %d", snap.Opts.Preset)
	}
	if snap.Opts.Exec > uint8(ExecDirect) {
		return nil, fmt.Errorf("ccsp: snapshot has unknown execution mode %d", snap.Opts.Exec)
	}
	opts := Options{
		Epsilon:   snap.Opts.Epsilon,
		Preset:    Preset(snap.Opts.Preset),
		MaxRounds: snap.Opts.MaxRounds,
		Workers:   snap.Opts.Workers,
		Execution: Execution(snap.Opts.Exec),
	}
	if direct {
		opts.Execution = ExecDirect
	}
	// The decoded graph is nobody else's: the engine adopts it.
	opts, err = prepare(&Graph{g: snap.Graph}, opts)
	if err != nil {
		return nil, err
	}
	e := adoptEngine(snap.Graph, opts)
	// Restore the persisted graph version: a DynamicEngine wrapped
	// around the loaded engine resumes its epoch sequence from here.
	e.epoch = snap.Opts.Epoch
	for i, a := range snap.Artifacts {
		if a.Variant > uint8(artLowDegree) {
			return nil, fmt.Errorf("ccsp: snapshot artifact %d has unknown variant %d", i, a.Variant)
		}
		key := artifactKey{artVariant(a.Variant), a.Params}
		if _, dup := e.pre.arts[key]; dup {
			return nil, fmt.Errorf("ccsp: snapshot has duplicate artifact (%s, ε'=%g)", key.variant, a.Params.Eps)
		}
		if err := a.Params.Check(a.Art); err != nil {
			return nil, fmt.Errorf("ccsp: snapshot artifact %d: %w", i, err)
		}
		if key.variant == artLowDegree && a.Degs == nil {
			return nil, fmt.Errorf("ccsp: snapshot low-degree artifact %d is missing its degree vector", i)
		}
		// Entries in arts are by definition complete: queries use the
		// rehydrated artifact as-is, with no build to wait on, once attach
		// has derived what they read from it.
		ent := &artifactEntry{art: a.Art, degs: a.Degs, stats: fromSnapStats(a.Stats)}
		e.exec.attach(key.variant, ent, e.sibling(key))
		e.pre.arts[key] = ent
		e.pre.order = append(e.pre.order, key)
	}
	return e, nil
}

func toSnapStats(s Stats) snapshot.Stats {
	return snapshot.Stats{
		Nodes:          s.Nodes,
		TotalRounds:    s.TotalRounds,
		SimRounds:      s.SimRounds,
		ChargedRounds:  s.ChargedRounds,
		Messages:       s.Messages,
		Words:          s.Words,
		PhaseRounds:    s.PhaseRounds,
		CollectiveTime: s.CollectiveTime,
		Exec:           uint8(s.Exec),
	}
}

// fromSnapStats converts back. The wire format does not tell a nil map
// from an empty one; it decodes both as nil, the one empty breakdown
// Stats has.
func fromSnapStats(s snapshot.Stats) Stats {
	return Stats{
		Nodes:          s.Nodes,
		TotalRounds:    s.TotalRounds,
		SimRounds:      s.SimRounds,
		ChargedRounds:  s.ChargedRounds,
		Messages:       s.Messages,
		Words:          s.Words,
		PhaseRounds:    s.PhaseRounds,
		CollectiveTime: s.CollectiveTime,
		Exec:           Execution(s.Exec),
	}
}
