package obs

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// TestFlightDumpGolden pins flight-dump decoding against dumps written by
// the encoder as it stood before dump framing moved into package frame: a
// complete dump and a copy torn mid-frame must decode to the same events
// and torn-byte counts the old decoder produced (flight_golden.json).
func TestFlightDumpGolden(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "flight_golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]*FlightDump
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"flight.dump", "flight_torn.dump"} {
		got, err := LoadFlightDump(filepath.Join("testdata", name))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		w, ok := want[name]
		if !ok {
			t.Fatalf("flight_golden.json has no entry for %s", name)
		}
		if got.TornBytes != w.TornBytes {
			t.Errorf("%s: TornBytes = %d, want %d", name, got.TornBytes, w.TornBytes)
		}
		if !reflect.DeepEqual(got.Events, w.Events) {
			t.Errorf("%s: events differ\n got: %+v\nwant: %+v", name, got.Events, w.Events)
		}
	}
}
