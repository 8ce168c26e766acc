package wire

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeClusterFile writes a minimal valid cluster file with extra
// top-level keys spliced in and returns its path.
func writeClusterFile(t *testing.T, extra string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "cluster.json")
	body := `{"client": "127.0.0.1:7400", ` + extra +
		`"daemons": [{"listen": "127.0.0.1:7401", "sites": [0, 1]}]}`
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestLoadClusterFileStrict: known keys load; a misspelled key, or a
// key the format has retired, fails with an error naming it instead of
// being silently ignored.
func TestLoadClusterFileStrict(t *testing.T) {
	f, err := LoadClusterFile(writeClusterFile(t, `"spans": 64, "sample_rate": 0.5, "flight_dir": "/tmp/x", `))
	if err != nil {
		t.Fatal(err)
	}
	if f.Spans != 64 || f.SampleRate != 0.5 || f.FlightDir != "/tmp/x" || f.NumSites() != 2 {
		t.Fatalf("loaded %+v", f)
	}
	for _, key := range []string{"sample-rate", "trace", "flight"} {
		_, err := LoadClusterFile(writeClusterFile(t, `"`+key+`": 1, `))
		if err == nil || !strings.Contains(err.Error(), `"`+key+`"`) {
			t.Errorf("key %q: err = %v, want an unknown-field error naming it", key, err)
		}
	}
}
