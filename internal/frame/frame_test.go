package frame

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"testing/iotest"
)

// TestLayout pins the header layout with the CRC-32C check value of
// "123456789" (0xE3069283), for both tag widths.
func TestLayout(t *testing.T) {
	for _, tag := range []string{"WALR", "\x02"} {
		got := AppendFrame(nil, tag, []byte("123456789"))
		want := append([]byte(tag), 9, 0, 0, 0, 0x83, 0x92, 0x06, 0xE3)
		want = append(want, "123456789"...)
		if !bytes.Equal(got, want) {
			t.Errorf("tag %q: frame = % x, want % x", tag, got, want)
		}
		if h := AppendHeader(nil, tag, []byte("123456789")); !bytes.Equal(h, want[:HeaderLen(len(tag))]) {
			t.Errorf("tag %q: header = % x, want % x", tag, h, want[:HeaderLen(len(tag))])
		}
	}
}

func TestParseDamage(t *testing.T) {
	good := AppendFrame(nil, "CKJR", []byte("payload"))
	tag, payload, n, err := Parse(good, 4, 64)
	if err != nil || string(tag) != "CKJR" || string(payload) != "payload" || n != len(good) {
		t.Fatalf("Parse(good) = %q %q %d %v", tag, payload, n, err)
	}
	flipped := bytes.Clone(good)
	flipped[len(flipped)-1] ^= 1
	for _, tc := range []struct {
		name string
		b    []byte
		max  int
		want Damage
	}{
		{"empty", nil, 64, Short},
		{"torn header", good[:HeaderLen(4)-1], 64, Short},
		{"torn payload", good[:len(good)-1], 64, Short},
		{"over bound", good, 6, TooLarge},
		{"over bound and torn", good[:HeaderLen(4)], 6, TooLarge},
		{"bit flip", flipped, 64, BadCRC},
	} {
		_, payload, n, err := Parse(tc.b, 4, tc.max)
		if err != tc.want {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
		// A CRC failure still locates the frame, so a reader can resync.
		if tc.want == BadCRC && (n != len(good) || len(payload) != len("payload")) {
			t.Errorf("%s: n = %d, payload %q; want the frame located", tc.name, n, payload)
		}
	}
}

// frames encodes n small frames under tag, returning the log and the end
// offset of each frame.
func frames(tag string, n int) ([]byte, []int) {
	var log []byte
	var ends []int
	for i := 0; i < n; i++ {
		log = AppendFrame(log, tag, bytes.Repeat([]byte{byte('a' + i)}, i+1))
		ends = append(ends, len(log))
	}
	return log, ends
}

func accept([]byte) error { return nil }

// TestScanTornAtEveryCut: a log cut at any byte keeps exactly the frames
// that end at or before the cut, and reports the rest as one dropped tail.
func TestScanTornAtEveryCut(t *testing.T) {
	log, ends := frames("WALR", 4)
	for cut := 0; cut <= len(log); cut++ {
		kept := 0
		for kept < len(ends) && ends[kept] <= cut {
			kept++
		}
		wantEnd := int64(0)
		if kept > 0 {
			wantEnd = int64(ends[kept-1])
		}
		end, s, err := Scan(bytes.NewReader(log[:cut]), "WALR", 1<<20, accept)
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		wantDropped := 0
		if int64(cut) > wantEnd {
			wantDropped = 1
		}
		if end != wantEnd || s.Frames != kept || s.Dropped != wantDropped || s.TailBytes != int64(cut)-wantEnd {
			t.Fatalf("cut %d: end %d stats %+v, want end %d, %d frames", cut, end, s, wantEnd, kept)
		}
	}
}

// TestScanStopsAtRejection: a payload the codec rejects ends the prefix
// exactly like a checksum failure, and so do foreign tags and oversized
// lengths.
func TestScanStopsAtRejection(t *testing.T) {
	log, ends := frames("CKJR", 3)
	var seen [][]byte
	end, s, err := Scan(bytes.NewReader(log), "CKJR", 1<<20, func(p []byte) error {
		if p[0] == 'b' {
			return errors.New("rejected")
		}
		seen = append(seen, p)
		return nil
	})
	if err != nil || end != int64(ends[0]) || s.Frames != 1 || s.Dropped != 1 || s.TailBytes != int64(len(log)-ends[0]) {
		t.Fatalf("rejection: end %d stats %+v err %v", end, s, err)
	}
	if !reflect.DeepEqual(seen, [][]byte{[]byte("a")}) {
		t.Fatalf("payloads seen = %q", seen)
	}
	for name, tc := range map[string]struct {
		tag string
		max int
	}{"foreign tag": {"WALR", 1 << 20}, "over bound": {"CKJR", 0}} {
		end, s, err := Scan(bytes.NewReader(log), tc.tag, tc.max, accept)
		if err != nil || end != 0 || s.Frames != 0 || s.Dropped != 1 || s.TailBytes != int64(len(log)) {
			t.Errorf("%s: end %d stats %+v err %v", name, end, s, err)
		}
	}
}

// TestScanReaderError: reader failures are the one thing Scan returns.
func TestScanReaderError(t *testing.T) {
	log, ends := frames("FLTR", 2)
	boom := errors.New("disk gone")
	for _, cut := range []int{ends[0], ends[0] + 3, ends[0] + HeaderLen(4) + 1} {
		r := io.MultiReader(bytes.NewReader(log[:cut]), iotest.ErrReader(boom))
		if _, _, err := Scan(r, "FLTR", 1<<20, accept); !errors.Is(err, boom) {
			t.Errorf("cut %d: err = %v, want %v", cut, err, boom)
		}
	}
}

// TestSalvage cuts a torn tail off a real file and leaves the offset at the
// end of the valid prefix, so the next append lands on a frame boundary.
func TestSalvage(t *testing.T) {
	log, ends := frames("CKJR", 3)
	path := filepath.Join(t.TempDir(), "log")
	if err := os.WriteFile(path, log[:len(log)-2], 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	s, err := Salvage(f, "CKJR", 1<<20, accept)
	if err != nil {
		t.Fatal(err)
	}
	if s.Frames != 2 || s.Dropped != 1 || s.TailBytes != int64(len(log)-2-ends[1]) {
		t.Fatalf("stats %+v", s)
	}
	if _, err := Append(f, "CKJR", []byte("ccc"), func(Stage) {}, nil); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, log) {
		t.Fatalf("after salvage + append: % x, want % x", got, log)
	}
}

// recorder logs every write and stage in order.
type recorder struct {
	events []string
	data   []byte
	fail   string // event name at which to fail
}

var errInjected = errors.New("injected")

func (r *recorder) Write(p []byte) (int, error) {
	r.events = append(r.events, "write")
	if r.fail == "write" {
		return 0, errInjected
	}
	r.data = append(r.data, p...)
	return len(p), nil
}

func (r *recorder) kill(s Stage) {
	r.events = append(r.events, [...]string{"begin", "torn", "before-sync", "after-sync"}[s])
}

func (r *recorder) sync() error {
	r.events = append(r.events, "sync")
	if r.fail == "sync" {
		return errInjected
	}
	return nil
}

// TestAppendStages: two half writes bracketed by every kill stage, the sync
// (when given) between BeforeSync and AfterSync, and failures stop the
// sequence before the commit is reported.
func TestAppendStages(t *testing.T) {
	payload := []byte("0123456789")
	want := AppendFrame(nil, "WALR", payload)
	r := &recorder{}
	n, err := Append(r, "WALR", payload, r.kill, r.sync)
	if err != nil || n != len(want) || !bytes.Equal(r.data, want) {
		t.Fatalf("Append = %d, %v; wrote % x", n, err, r.data)
	}
	if w := []string{"begin", "write", "torn", "write", "before-sync", "sync", "after-sync"}; !reflect.DeepEqual(r.events, w) {
		t.Fatalf("events = %v, want %v", r.events, w)
	}
	r = &recorder{}
	if _, err := Append(r, "WALR", payload, r.kill, nil); err != nil {
		t.Fatal(err)
	}
	if w := []string{"begin", "write", "torn", "write", "before-sync", "after-sync"}; !reflect.DeepEqual(r.events, w) {
		t.Fatalf("nil sync: events = %v, want %v", r.events, w)
	}
	for _, fail := range []string{"write", "sync"} {
		r = &recorder{fail: fail}
		if _, err := Append(r, "WALR", payload, r.kill, r.sync); !errors.Is(err, errInjected) {
			t.Errorf("%s failure: err = %v", fail, err)
		}
		if last := r.events[len(r.events)-1]; last != fail {
			t.Errorf("%s failure: sequence continued to %q", fail, last)
		}
	}
}
