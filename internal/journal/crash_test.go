package journal

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// openLog opens path without a snapshot (so nothing is ever compacted and
// Close only closes the file) and returns the journal plus the records its
// replay delivered, in order, as "put k=v" / "evict k" strings.
func openLog(t *testing.T, path string) (*Journal, []string) {
	t.Helper()
	var replayed []string
	j, err := Open(Config{Path: path},
		func(put json.RawMessage) error {
			var e testEntry
			if err := json.Unmarshal(put, &e); err != nil {
				return err
			}
			replayed = append(replayed, fmt.Sprintf("put %s=%d", e.Key, e.Val))
			return nil
		},
		func(key string) error {
			replayed = append(replayed, "evict "+key)
			return nil
		})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	t.Cleanup(func() { j.Close() })
	return j, replayed
}

// mustPut appends one put and returns its replay string.
func mustPut(t *testing.T, j *Journal, key string, val int) string {
	t.Helper()
	b, err := json.Marshal(testEntry{Key: key, Val: val})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(b, 0); err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("put %s=%d", key, val)
}

// appendRaw writes s to the end of path, as a crash mid-append would leave it.
func appendRaw(t *testing.T, path, s string) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.WriteString(s); err != nil {
		t.Fatal(err)
	}
}

// TestReopenAfterTornTailKeepsLaterAppends: appends made after reopening a
// journal with a torn tail must survive a second crash. Reopening without
// Close stands in for kill -9.
func TestReopenAfterTornTailKeepsLaterAppends(t *testing.T) {
	for _, tc := range []struct {
		name, tail string
		survives   []string // what the tail contributes to the replay
	}{
		{"partial record", `{"v":1,"put":{"key":"b","va`, nil},
		{"record without newline", `{"v":1,"put":{"key":"b","val":2}}`, []string{"put b=2"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "j.ndjson")
			j1, _ := openLog(t, path)
			want := []string{mustPut(t, j1, "a", 1)}
			appendRaw(t, path, tc.tail)
			want = append(want, tc.survives...)

			j2, replayed := openLog(t, path)
			if !reflect.DeepEqual(replayed, want) {
				t.Fatalf("first reopen replayed %v, want %v", replayed, want)
			}
			want = append(want, mustPut(t, j2, "c", 3), mustPut(t, j2, "d", 4))

			_, replayed = openLog(t, path)
			if !reflect.DeepEqual(replayed, want) {
				t.Fatalf("second reopen replayed %v, want %v", replayed, want)
			}
		})
	}
}

// FuzzJournalCrash writes a sequence of puts and evicts, tears the file at
// an arbitrary byte, reopens, appends more, and reopens again without Close.
// Every record wholly before the tear and every record appended after the
// reopen must replay, in order, and no open may report corruption.
func FuzzJournalCrash(f *testing.F) {
	f.Add([]byte{0, 2, 1, 4, 6}, uint16(10))
	f.Add([]byte{0, 0, 0}, uint16(37))
	f.Add([]byte{3, 8, 5}, uint16(0))
	f.Add([]byte{1}, uint16(1000))
	f.Fuzz(func(t *testing.T, ops []byte, tear uint16) {
		if len(ops) > 64 {
			ops = ops[:64]
		}
		path := filepath.Join(t.TempDir(), "j.ndjson")
		j1, _ := openLog(t, path)
		var written []string
		for i, op := range ops {
			key := fmt.Sprintf("k%d", op/2%4)
			if op&1 == 0 {
				written = append(written, mustPut(t, j1, key, i))
			} else {
				if err := j1.AppendEvict(key, 0); err != nil {
					t.Fatal(err)
				}
				written = append(written, "evict "+key)
			}
		}

		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		cut := int(tear) % (len(data) + 1)
		if err := os.Truncate(path, int64(cut)); err != nil {
			t.Fatal(err)
		}
		// A record survives the tear when all of its bytes but perhaps the
		// newline do: no strict prefix of a record is valid JSON.
		var want []string
		for i, end := 0, 0; i < len(written); i++ {
			end += bytes.IndexByte(data[end:], '\n')
			if end > cut {
				break
			}
			want = append(want, written[i])
			end++
		}

		j2, replayed := openLog(t, path)
		if !reflect.DeepEqual(replayed, want) {
			t.Fatalf("reopen after tear at %d replayed %v, want %v", cut, replayed, want)
		}
		want = append(want, mustPut(t, j2, "late", 1), mustPut(t, j2, "later", 2))

		_, replayed = openLog(t, path)
		if !reflect.DeepEqual(replayed, want) {
			t.Fatalf("second reopen replayed %v, want %v", replayed, want)
		}
	})
}
