package sweep

// Crash-safe sweep state. The state file is an internal/ckpt container:
// one "sweep-config" section holding the canonical sweep configuration
// plus its FNV-64a fingerprint, followed by one "cell-<i>" section per
// completed grid cell (i is the grid index), in grid order. After every
// completed cell the whole file is rewritten with ckpt.SaveAtomic, so
// the file on disk is always a complete container that holds each cell
// once, and a SIGKILL at any point loses at most the cells in flight.
//
// Resume is fingerprint-gated: the stored hash must match the hash the
// resuming run computes from its own flags, otherwise the file is
// rejected — silently mixing cells from two different sweeps would
// produce a report that looks valid and is wrong. Resume reads only the
// config section's hash and cell count; the rest of the section is the
// fingerprinted text, kept readable for whoever inspects the file.
//
// Cells are stored as their canonical JSON. Go's float64 JSON encoding
// round-trips exactly (shortest representation that re-parses to the
// same bits), which is what makes a resumed report byte-identical to an
// uninterrupted run's.

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"strconv"
	"strings"
	"sync"

	"repro/internal/ckpt"
)

const stateConfigSection = "sweep-config"

// stateMeta is what resume reads of the "sweep-config" section.
type stateMeta struct {
	Hash  string
	Cells int
}

func formatGrid(g []float64) string {
	parts := make([]string, len(g))
	for i, v := range g {
		// 'g'/-1 is the shortest representation that parses back to the
		// same float64, so distinct grids never share a fingerprint.
		parts[i] = strconv.FormatFloat(v, 'g', -1, 64)
	}
	return strings.Join(parts, ",")
}

// statePayload renders the canonical configuration text the fingerprint
// covers: everything that determines the meaning of a cell index and
// the bytes of the final report.
func statePayload(seed int64, cfg *Config, totalCells int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "seed %d\n", seed)
	fmt.Fprintf(&b, "cold-funcs %d\n", cfg.ColdFuncs)
	fmt.Fprintf(&b, "helper-layers %d\n", cfg.HelperLayers)
	fmt.Fprintf(&b, "knee-factor %s\n", strconv.FormatFloat(cfg.KneeFactor, 'g', -1, 64))
	fmt.Fprintf(&b, "timings %t\n", cfg.Timings)
	fmt.Fprintf(&b, "icp-grid %s\n", formatGrid(cfg.ICPGrid))
	fmt.Fprintf(&b, "inline-grid %s\n", formatGrid(cfg.InlineGrid))
	names := make([]string, len(cfg.Combos))
	for i, c := range cfg.Combos {
		names[i] = c.Name
	}
	fmt.Fprintf(&b, "combos %s\n", strings.Join(names, ","))
	fmt.Fprintf(&b, "cells %d\n", totalCells)
	return b.String()
}

// stateHash fingerprints the configuration: FNV-64a over the canonical
// payload, 16 hex digits (the same shape prof.Profile.Hash uses).
func stateHash(seed int64, cfg *Config, totalCells int) string {
	h := fnv.New64a()
	h.Write([]byte(statePayload(seed, cfg, totalCells)))
	return fmt.Sprintf("%016x", h.Sum64())
}

func stateConfigData(seed int64, cfg *Config, totalCells int) []byte {
	return []byte("hash " + stateHash(seed, cfg, totalCells) + "\n" + statePayload(seed, cfg, totalCells))
}

func cellSectionName(i int) string { return fmt.Sprintf("cell-%d", i) }

// parseState decodes the sections of a loaded state file. It is
// lenient the way resume wants: a missing or garbled config section
// returns a nil meta (the caller decides that is fatal), an
// unparseable or out-of-range cell section is dropped with a warning,
// and a cell index that appears twice keeps its last section.
func parseState(secs []ckpt.Section) (*stateMeta, map[int]Cell, []string) {
	var meta *stateMeta
	var warns []string
	type pending struct {
		idx  int
		cell Cell
	}
	var cells []pending
	for _, sec := range secs {
		switch {
		case sec.Name == stateConfigSection:
			m := &stateMeta{}
			for _, line := range strings.Split(string(sec.Data), "\n") {
				key, val, _ := strings.Cut(line, " ")
				switch key {
				case "hash":
					m.Hash = val
				case "cells":
					m.Cells, _ = strconv.Atoi(val)
				}
			}
			if m.Hash == "" || m.Cells <= 0 {
				warns = append(warns, "state config section unusable")
				continue
			}
			meta = m
		case strings.HasPrefix(sec.Name, "cell-"):
			idx, err := strconv.Atoi(strings.TrimPrefix(sec.Name, "cell-"))
			if err != nil || idx < 0 {
				warns = append(warns, fmt.Sprintf("dropping state section %q: bad cell index", sec.Name))
				continue
			}
			var c Cell
			if err := json.Unmarshal(sec.Data, &c); err != nil {
				warns = append(warns, fmt.Sprintf("dropping state cell %d: %v", idx, err))
				continue
			}
			cells = append(cells, pending{idx, c})
		default:
			warns = append(warns, fmt.Sprintf("dropping unknown state section %q", sec.Name))
		}
	}
	out := make(map[int]Cell, len(cells))
	for _, p := range cells {
		if meta != nil && p.idx >= meta.Cells {
			warns = append(warns, fmt.Sprintf("dropping state cell %d: index outside grid of %d cells", p.idx, meta.Cells))
			continue
		}
		out[p.idx] = p.cell
	}
	return meta, out, warns
}

// stateWriter checkpoints the cells the sweep's worker pool completes:
// each put rewrites the whole state file under one mutex.
type stateWriter struct {
	mu     sync.Mutex
	path   string
	config ckpt.Section
	// cells holds each completed cell's canonical JSON by grid index;
	// nil marks a cell not yet complete.
	cells [][]byte
}

func (w *stateWriter) put(i int, c Cell) error {
	data, err := json.Marshal(c)
	if err != nil {
		return err
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	w.cells[i] = data
	return w.save()
}

// save writes the config section, then the completed cells in grid
// order, atomically over the previous state file.
func (w *stateWriter) save() error {
	secs := []ckpt.Section{w.config}
	for i, data := range w.cells {
		if data != nil {
			secs = append(secs, ckpt.Section{Name: cellSectionName(i), Data: data})
		}
	}
	return ckpt.SaveAtomic(w.path, secs)
}

// openState opens cfg.StatePath for this run. An existing file is
// fingerprint-checked and its completed cells returned for skipping.
// Either way the state is written once before any cell runs: a fresh
// file holds its config section from the start, and a damaged one is
// replaced by what was salvaged from it.
func openState(seed int64, cfg *Config, totalCells int) (map[int]Cell, *stateWriter, error) {
	w := &stateWriter{
		path:   cfg.StatePath,
		config: ckpt.Section{Name: stateConfigSection, Data: stateConfigData(seed, cfg, totalCells)},
		cells:  make([][]byte, totalCells),
	}
	secs, sal, err := ckpt.Load(cfg.StatePath)
	if err != nil {
		return nil, nil, fmt.Errorf("sweep: load state %s: %w", cfg.StatePath, err)
	}
	var cells map[int]Cell
	if sal != nil { // the file exists
		if !sal.Clean() {
			cfg.Warnf("sweep: warning: state file %s was torn; salvaged intact prefix (%s)", cfg.StatePath, sal)
		}
		meta, restored, warns := parseState(secs)
		for _, msg := range warns {
			cfg.Warnf("sweep: warning: %s", msg)
		}
		if meta == nil {
			return nil, nil, fmt.Errorf("sweep: state file %s has no usable config section; delete it to start over", cfg.StatePath)
		}
		if want := stateHash(seed, cfg, totalCells); meta.Hash != want || meta.Cells != totalCells {
			return nil, nil, fmt.Errorf("sweep: state file %s was written by a different sweep configuration (its hash %s, this run's %s); delete it or rerun with the original flags", cfg.StatePath, meta.Hash, want)
		}
		for i, c := range restored {
			if w.cells[i], err = json.Marshal(c); err != nil {
				return nil, nil, err
			}
		}
		cells = restored
		cfg.Warnf("sweep: resuming from %s: %d of %d cells already complete", cfg.StatePath, len(cells), totalCells)
	}
	if err := w.save(); err != nil {
		return nil, nil, fmt.Errorf("sweep: write state %s: %w", cfg.StatePath, err)
	}
	return cells, w, nil
}
