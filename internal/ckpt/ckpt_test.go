package ckpt

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// payload is a stand-in for a serialized profile: line-oriented with a
// magic header, like the real payloads the fleet and sweep frame.
var payload = []byte("pibe-profile v1\nops 220000\nfn vfs_read 181000\nsite 23 vfs_read indirect 180000 ext4_read:160000 pipe_read:20000\n")

func checkpointSections() []Section {
	return []Section{
		{Name: "meta", Data: []byte("epoch 3\nrebuilds 1\n")},
		{Name: "baseline", Data: payload},
		{Name: "aggregate", Data: append([]byte(nil), payload...)},
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	secs := checkpointSections()
	var buf bytes.Buffer
	if err := WriteSections(&buf, secs); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSections(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(secs) {
		t.Fatalf("round-trip kept %d of %d sections", len(got), len(secs))
	}
	for i := range secs {
		if got[i].Name != secs[i].Name || !bytes.Equal(got[i].Data, secs[i].Data) {
			t.Fatalf("section %d mismatch: %q vs %q", i, got[i].Name, secs[i].Name)
		}
	}
	// Lenient agrees and reports a clean parse.
	lgot, sal, err := ReadSectionsLenient(bytes.NewReader(buf.Bytes()))
	if err != nil || !sal.Clean() || len(lgot) != len(secs) {
		t.Fatalf("lenient on clean input: %d sections, salvage %v, err %v", len(lgot), sal, err)
	}
	// Binary payloads (newlines, NULs, frame-lookalike bytes) survive.
	bin := []Section{{Name: "blob", Data: []byte("sec fake 3 00000000\nend 1\n\x00\xff")}}
	buf.Reset()
	if err := WriteSections(&buf, bin); err != nil {
		t.Fatal(err)
	}
	got, err = ReadSections(bytes.NewReader(buf.Bytes()))
	if err != nil || len(got) != 1 || !bytes.Equal(got[0].Data, bin[0].Data) {
		t.Fatalf("binary payload mangled: %v, %v", got, err)
	}
}

func TestCheckpointRejectsBadNames(t *testing.T) {
	var buf bytes.Buffer
	for _, name := range []string{"", "two words", "tab\tname", "new\nline"} {
		if err := WriteSections(&buf, []Section{{Name: name}}); err == nil {
			t.Fatalf("WriteSections accepted section name %q", name)
		}
	}
}

func TestCheckpointBitFlip(t *testing.T) {
	secs := checkpointSections()
	var buf bytes.Buffer
	if err := WriteSections(&buf, secs); err != nil {
		t.Fatal(err)
	}
	clean := buf.Bytes()
	// Flip one byte inside the middle section's payload: strict must
	// reject, lenient must drop exactly that section and keep the rest.
	flipped := append([]byte(nil), clean...)
	off := bytes.Index(flipped, secs[1].Data) + len(secs[1].Data)/2
	flipped[off] ^= 0x40
	if _, err := ReadSections(bytes.NewReader(flipped)); err == nil {
		t.Fatal("strict read accepted a bit-flipped checkpoint")
	}
	got, sal, err := ReadSectionsLenient(bytes.NewReader(flipped))
	if err != nil {
		t.Fatal(err)
	}
	if sal.Clean() || sal.Dropped != 1 || sal.Kept != 2 {
		t.Fatalf("bit-flip salvage = %+v", sal)
	}
	if len(got) != 2 || got[0].Name != "meta" || got[1].Name != "aggregate" {
		t.Fatalf("salvaged wrong sections: %v", names(got))
	}
	if !bytes.Equal(got[1].Data, secs[2].Data) {
		t.Fatal("section after the damaged one did not survive intact")
	}
}

func TestCheckpointTruncation(t *testing.T) {
	secs := checkpointSections()
	var buf bytes.Buffer
	if err := WriteSections(&buf, secs); err != nil {
		t.Fatal(err)
	}
	clean := buf.Bytes()
	// Cut everywhere: the salvage must be a clean prefix of the sections,
	// never an error, never a corrupted payload.
	for cut := 0; cut < len(clean); cut++ {
		torn := clean[:cut]
		if _, err := ReadSections(bytes.NewReader(torn)); err == nil && cut < len(clean) {
			t.Fatalf("strict read accepted a checkpoint torn at %d", cut)
		}
		got, sal, err := ReadSectionsLenient(bytes.NewReader(torn))
		if err != nil {
			t.Fatalf("lenient errored at cut %d: %v", cut, err)
		}
		if sal.Clean() {
			t.Fatalf("torn checkpoint at %d reported clean", cut)
		}
		if len(got) > len(secs) {
			t.Fatalf("cut %d salvaged %d sections from a %d-section file", cut, len(got), len(secs))
		}
		for i, s := range got {
			if s.Name != secs[i].Name || !bytes.Equal(s.Data, secs[i].Data) {
				t.Fatalf("cut %d: salvaged section %d is not the original prefix", cut, i)
			}
		}
	}
}

func TestSaveAtomicLoad(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state")
	secs := checkpointSections()
	if err := SaveAtomic(path, secs); err != nil {
		t.Fatalf("SaveAtomic: %v", err)
	}
	got, sal, err := Load(path)
	if err != nil || !sal.Clean() || len(got) != len(secs) {
		t.Fatalf("Load = %d sections, %v, %v", len(got), sal, err)
	}
	// Overwrite leaves no temp litter.
	if err := SaveAtomic(path, secs[:1]); err != nil {
		t.Fatalf("SaveAtomic overwrite: %v", err)
	}
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("directory has %d entries after overwrite, want just the checkpoint", len(entries))
	}
	got, _, err = Load(path)
	if err != nil || len(got) != 1 {
		t.Fatalf("Load after overwrite = %d sections, %v", len(got), err)
	}
}

func TestLoadMissing(t *testing.T) {
	secs, sal, err := Load(filepath.Join(t.TempDir(), "absent"))
	if secs != nil || sal != nil || err != nil {
		t.Fatalf("missing checkpoint should be a fresh start, got %v %v %v", secs, sal, err)
	}
}

func names(secs []Section) string {
	var parts []string
	for _, s := range secs {
		parts = append(parts, s.Name)
	}
	return fmt.Sprint(parts)
}

// FuzzCheckpointRead mirrors FuzzProfRead for the checkpoint container:
// neither reader may panic on arbitrary input, the lenient reader never
// errors on in-memory input, and whatever it salvages re-frames into a
// checkpoint the strict reader accepts.
func FuzzCheckpointRead(f *testing.F) {
	var buf bytes.Buffer
	secs := []Section{
		{Name: "meta", Data: []byte("epoch 3\n")},
		{Name: "baseline", Data: []byte("pibe-profile v1\nops 7\n")},
	}
	if err := WriteSections(&buf, secs); err != nil {
		f.Fatal(err)
	}
	valid := buf.String()
	f.Add(valid)
	f.Add("")
	f.Add("pibe-checkpoint v1\n")
	f.Add("pibe-checkpoint v1\nend 0\n")
	f.Add(valid[:len(valid)/2])                          // torn write
	f.Add(strings.Replace(valid, "epoch", "epocX", 1))   // payload bit-flip
	f.Add(strings.Replace(valid, "sec meta", "sec", 1))  // mangled frame
	f.Add(strings.Replace(valid, "end 2", "end 9", 1))   // wrong end count
	f.Add("wrong magic\nsec a 0 00000000\n\nend 1\n")    // foreign header
	f.Add("pibe-checkpoint v1\nsec a 999999 00000000\n") // length past EOF

	f.Fuzz(func(t *testing.T, data string) {
		ReadSections(strings.NewReader(data))

		got, sal, err := ReadSectionsLenient(strings.NewReader(data))
		if err != nil {
			t.Fatalf("ReadSectionsLenient errored on in-memory input: %v", err)
		}
		if sal == nil {
			t.Fatal("ReadSectionsLenient returned nil salvage")
		}
		var out bytes.Buffer
		if err := WriteSections(&out, got); err != nil {
			t.Fatalf("salvaged sections failed to re-frame: %v", err)
		}
		if _, err := ReadSections(bytes.NewReader(out.Bytes())); err != nil {
			t.Fatalf("salvaged sections did not round-trip strictly: %v", err)
		}
	})
}
