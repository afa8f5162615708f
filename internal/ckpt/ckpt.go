// Package ckpt is the shared crash-safe checkpoint container of the
// reproduction: named, CRC-framed byte sections in a line-oriented,
// versioned file. Every checkpoint is written whole and atomically
// (SaveAtomic: temp file + sync + rename), the ingest service's after
// every round and the sweep's after every completed cell, so the file
// on disk is always a complete container.
//
// The format:
//
//	pibe-checkpoint v1
//	sec meta 42 1a2b3c4d
//	<42 raw payload bytes>
//	sec baseline 1337 deadbeef
//	<1337 raw payload bytes>
//	end 2
//
// A torn or bit-flipped file is detected and salvaged section by
// section: ReadSectionsLenient keeps every section whose frame and CRC
// are intact and reports exactly what was lost. The container carries no
// semantics of its own — callers gate resume on their own content hashes
// (the fleet's baseline hash, the sweep's config fingerprint) stored
// inside a section.
package ckpt

import (
	"bufio"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

const checkpointMagic = "pibe-checkpoint v1"

// Section is one named, CRC-framed payload of a checkpoint file.
type Section struct {
	Name string
	Data []byte
}

// WriteSections serializes the sections in order. Names must be non-empty
// and free of whitespace so the frame lines stay parseable.
func WriteSections(w io.Writer, secs []Section) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "%s\n", checkpointMagic); err != nil {
		return err
	}
	for _, s := range secs {
		if err := writeSection(bw, s); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(bw, "end %d\n", len(secs)); err != nil {
		return err
	}
	return bw.Flush()
}

// writeSection emits one framed section.
func writeSection(w io.Writer, s Section) error {
	if s.Name == "" || strings.ContainsAny(s.Name, " \t\n\r") {
		return fmt.Errorf("ckpt: checkpoint section name %q is empty or contains whitespace", s.Name)
	}
	crc := crc32.ChecksumIEEE(s.Data)
	if _, err := fmt.Fprintf(w, "sec %s %d %08x\n", s.Name, len(s.Data), crc); err != nil {
		return err
	}
	if _, err := w.Write(s.Data); err != nil {
		return err
	}
	_, err := w.Write([]byte{'\n'})
	return err
}

// Salvage summarizes what a lenient checkpoint read kept and lost.
type Salvage struct {
	// Kept counts sections whose frame and CRC were intact.
	Kept int
	// Dropped counts sections discarded for a CRC mismatch.
	Dropped int
	// Truncated records a torn tail: a frame or payload cut short.
	Truncated bool
	// BadMagic records a missing or wrong header line.
	BadMagic bool
	// MissingEnd records an absent or inconsistent end record (a write
	// that never completed, even if every kept section is intact).
	MissingEnd bool
	// Errs holds the first few salvage reasons, capped.
	Errs []string
}

// Clean reports whether the checkpoint parsed without any degradation.
func (s *Salvage) Clean() bool {
	return s.Dropped == 0 && !s.Truncated && !s.BadMagic && !s.MissingEnd
}

func (s *Salvage) String() string {
	out := fmt.Sprintf("ckpt: checkpoint salvaged %d sections (%d dropped)", s.Kept, s.Dropped)
	if s.Truncated {
		out += ", truncated"
	}
	if s.BadMagic {
		out += ", bad magic"
	}
	if s.MissingEnd {
		out += ", missing end"
	}
	return out
}

// ReadSections parses a checkpoint serialized by WriteSections. It is
// strict: any framing damage, CRC mismatch, missing end record or
// trailing garbage fails the whole read.
func ReadSections(r io.Reader) ([]Section, error) {
	secs, sal, err := readSections(r, false)
	if err != nil {
		return nil, err
	}
	if !sal.Clean() {
		return nil, fmt.Errorf("ckpt: checkpoint damaged: %s", sal)
	}
	return secs, nil
}

// ReadSectionsLenient parses a checkpoint, keeping every section whose
// frame and CRC survive and reporting what was lost. Torn writes salvage
// to the intact prefix. The error is non-nil only when the underlying
// reader fails; the sections and salvage summary are valid even then.
func ReadSectionsLenient(r io.Reader) ([]Section, *Salvage, error) {
	return readSections(r, true)
}

func readSections(r io.Reader, lenient bool) ([]Section, *Salvage, error) {
	br := bufio.NewReader(r)
	sal := &Salvage{}
	note := func(format string, args ...any) {
		if len(sal.Errs) < 8 {
			sal.Errs = append(sal.Errs, fmt.Sprintf(format, args...))
		}
	}
	fail := func(err error) ([]Section, *Salvage, error) {
		if lenient {
			return nil, sal, nil
		}
		return nil, sal, err
	}
	header, err := readLine(br)
	if err != nil {
		sal.BadMagic, sal.MissingEnd = true, true
		note("missing header: %v", err)
		return fail(fmt.Errorf("ckpt: checkpoint missing header: %w", err))
	}
	if header != checkpointMagic {
		sal.BadMagic, sal.MissingEnd = true, true
		note("bad magic %q", header)
		return fail(fmt.Errorf("ckpt: checkpoint bad magic %q", header))
	}
	var secs []Section
	for {
		line, err := readLine(br)
		if err != nil {
			// Ran out before the end record: a write torn between frames.
			sal.Truncated, sal.MissingEnd = true, true
			note("torn between sections: %v", err)
			if lenient {
				return secs, sal, nil
			}
			return nil, sal, fmt.Errorf("ckpt: checkpoint torn (no end record)")
		}
		fields := strings.Fields(line)
		switch {
		case len(fields) == 4 && fields[0] == "sec":
			name := fields[1]
			size, err1 := strconv.ParseInt(fields[2], 10, 63)
			want, err2 := strconv.ParseUint(fields[3], 16, 32)
			if err1 != nil || err2 != nil || size < 0 {
				sal.Truncated, sal.MissingEnd = true, true
				note("malformed frame %q", line)
				if lenient {
					return secs, sal, nil
				}
				return nil, sal, fmt.Errorf("ckpt: checkpoint malformed frame %q", line)
			}
			data := make([]byte, size)
			if _, err := io.ReadFull(br, data); err != nil {
				sal.Truncated, sal.MissingEnd = true, true
				note("section %s payload torn: %v", name, err)
				if lenient {
					return secs, sal, nil
				}
				return nil, sal, fmt.Errorf("ckpt: checkpoint section %s payload torn", name)
			}
			if b, err := br.ReadByte(); err != nil || b != '\n' {
				sal.Truncated, sal.MissingEnd = true, true
				note("section %s frame not newline-terminated", name)
				if lenient {
					return secs, sal, nil
				}
				return nil, sal, fmt.Errorf("ckpt: checkpoint section %s frame not newline-terminated", name)
			}
			if got := crc32.ChecksumIEEE(data); uint64(got) != want {
				// The frame is intact, so the damage is contained: drop just
				// this section and keep scanning.
				sal.Dropped++
				note("section %s crc mismatch: got %08x want %08x", name, got, want)
				if !lenient {
					return nil, sal, fmt.Errorf("ckpt: checkpoint section %s crc mismatch", name)
				}
				continue
			}
			secs = append(secs, Section{Name: name, Data: data})
			sal.Kept++
		case len(fields) == 2 && fields[0] == "end":
			n, err := strconv.Atoi(fields[1])
			if err != nil || n != sal.Kept+sal.Dropped {
				sal.MissingEnd = true
				note("end record %q inconsistent with %d sections", line, sal.Kept+sal.Dropped)
				if !lenient {
					return nil, sal, fmt.Errorf("ckpt: checkpoint end record %q inconsistent", line)
				}
			}
			if _, err := br.ReadByte(); err != io.EOF {
				note("trailing bytes after end record")
				if !lenient {
					return nil, sal, fmt.Errorf("ckpt: checkpoint has trailing bytes after end record")
				}
			}
			return secs, sal, nil
		default:
			sal.Truncated, sal.MissingEnd = true, true
			note("unknown frame %q", line)
			if lenient {
				return secs, sal, nil
			}
			return nil, sal, fmt.Errorf("ckpt: checkpoint unknown frame %q", line)
		}
	}
}

// readLine reads one newline-terminated line, rejecting unterminated
// tails (a torn write).
func readLine(br *bufio.Reader) (string, error) {
	line, err := br.ReadString('\n')
	if err != nil {
		return "", fmt.Errorf("unterminated line: %w", err)
	}
	return strings.TrimSuffix(line, "\n"), nil
}

// SaveAtomic checkpoints secs into path atomically: the sections are
// framed and CRC-guarded, written to a temporary file in the same
// directory, synced, and renamed into place — a crash at any point
// leaves either the previous checkpoint or a salvageable new one, never
// a half-written hole where the old state used to be.
func SaveAtomic(path string, secs []Section) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("ckpt: checkpoint temp file: %w", err)
	}
	defer os.Remove(tmp.Name())
	if err := WriteSections(tmp, secs); err != nil {
		tmp.Close()
		return fmt.Errorf("ckpt: checkpoint write: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("ckpt: checkpoint sync: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("ckpt: checkpoint close: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("ckpt: checkpoint rename: %w", err)
	}
	return nil
}

// Load reads the checkpoint at path leniently. A missing file returns
// (nil, nil, nil) — a fresh start; any other open failure is an error.
func Load(path string) ([]Section, *Salvage, error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil, nil, nil
	}
	if err != nil {
		return nil, nil, fmt.Errorf("ckpt: open checkpoint: %w", err)
	}
	defer f.Close()
	secs, sal, err := ReadSectionsLenient(f)
	if err != nil {
		return nil, sal, fmt.Errorf("ckpt: read checkpoint: %w", err)
	}
	return secs, sal, nil
}
