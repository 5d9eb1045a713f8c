package runartifact

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

var baselines = []string{"short-seed4.json", "short-escape.json"}

func readBaseline(t testing.TB, name string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "testdata", "baselines", name))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestBaselineFingerprintsPinned: the committed baselines keep the
// fingerprint values they were indexed with, so existing run-history
// stores keep trending clean across a change to how sections are
// declared.
func TestBaselineFingerprintsPinned(t *testing.T) {
	want := map[string]map[string]float64{
		"short-seed4.json": {
			"alerts": 2346890385871310, "census": 1035694090728858,
			"counters": 2222267944553357, "forensics": 2373164654023,
			"heatmap": 359882823410922, "outcome": 320518277647474,
			"profile": 920724205897459,
		},
		"short-escape.json": {
			"alerts": 1714746428137888, "census": 65411351024957,
			"counters": 711376990065350, "forensics": 415851213922720,
			"heatmap": 4388025904164497, "outcome": 398152315063227,
			"profile": 1460688796017567,
		},
	}
	for _, name := range baselines {
		a, err := Read(bytes.NewReader(readBaseline(t, name)))
		if err != nil {
			t.Fatal(err)
		}
		if got := a.Fingerprints(); !reflect.DeepEqual(got, want[name]) {
			t.Errorf("%s fingerprints = %v, want %v", name, got, want[name])
		}
	}
}

// TestSectionTableMatchesArtifact: every table entry names the JSON
// key of the field it points at, and every pointer-typed section field
// of Artifact has an entry.
func TestSectionTableMatchesArtifact(t *testing.T) {
	var a Artifact
	byAddr := map[uintptr]string{}
	at := reflect.TypeOf(a)
	for i := 0; i < at.NumField(); i++ {
		f := at.Field(i)
		if f.Type.Kind() != reflect.Pointer {
			continue
		}
		key, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		byAddr[reflect.ValueOf(&a).Elem().Field(i).Addr().Pointer()] = key
	}
	for _, s := range Sections() {
		key, ok := byAddr[reflect.ValueOf(s.Field(&a)).Pointer()]
		if !ok || key != s.Name {
			t.Errorf("section %q points at the field keyed %q", s.Name, key)
		}
		delete(byAddr, reflect.ValueOf(s.Field(&a)).Pointer())
	}
	for _, key := range byAddr {
		t.Errorf("artifact field %q has no section table entry", key)
	}
}

// trimmed keeps at most two elements of every array in a document:
// every section's shape at a size the fuzzer mutates quickly.
func trimmed(t testing.TB, data []byte) []byte {
	t.Helper()
	var trim func(v any) any
	trim = func(v any) any {
		switch x := v.(type) {
		case []any:
			x = x[:min(len(x), 2)]
			for i := range x {
				x[i] = trim(x[i])
			}
			return x
		case map[string]any:
			for k, e := range x {
				x[k] = trim(e)
			}
		}
		return v
	}
	var v any
	if err := json.Unmarshal(data, &v); err != nil {
		t.Fatal(err)
	}
	out, err := json.Marshal(trim(v))
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// FuzzArtifactRead: for any document Read accepts, a self-comparison
// flags nothing, the fingerprints survive a Write/Read round trip, and
// every renderer in the section table runs. testdata/fuzz holds the
// inputs that once failed (a negative worker busy time panicked the
// plan renderer).
func FuzzArtifactRead(f *testing.F) {
	for _, name := range baselines {
		f.Add(trimmed(f, readBaseline(f, name)))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		a, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		if d := Compare(a, a, Tolerances{}); d.Flagged != 0 {
			t.Fatalf("self-comparison flagged %d figures:\n%s", d.Flagged, d.Table(true))
		}
		var buf bytes.Buffer
		if err := a.Write(&buf); err != nil {
			t.Fatalf("write of a read artifact: %v", err)
		}
		b, err := Read(&buf)
		if err != nil {
			t.Fatalf("read back: %v", err)
		}
		if fa, fb := a.Fingerprints(), b.Fingerprints(); !reflect.DeepEqual(fa, fb) {
			t.Fatalf("fingerprints moved through a round trip: %v vs %v", fa, fb)
		}
		for _, s := range Sections() {
			if s.render != nil && s.Has(a) {
				if err := s.render(io.Discard, a, 72); err != nil {
					t.Fatalf("%s renderer: %v", s.Name, err)
				}
			}
		}
	})
}
