package trace

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestJSONLReaderPositionsCorruptTail reads the committed fixture of a
// crashed writer — two complete lines followed by a record cut mid-JSON
// with no trailing newline — and checks that the good prefix decodes
// and the tail fails with a positioned, truncation-specific error.
func TestJSONLReaderPositionsCorruptTail(t *testing.T) {
	f, err := os.Open(filepath.Join("testdata", "corrupt_tail.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	r := NewReader(f)
	for want := 1; want <= 2; want++ {
		tr, err := r.Read()
		if err != nil {
			t.Fatalf("complete line %d rejected: %v", want, err)
		}
		if tr.TestID != want {
			t.Fatalf("line %d decoded to test_id %d", want, tr.TestID)
		}
	}
	_, err = r.Read()
	if err == nil || err == io.EOF {
		t.Fatalf("truncated tail accepted (err = %v)", err)
	}
	if !strings.Contains(err.Error(), "trace line 3") {
		t.Fatalf("error does not name the line: %v", err)
	}
	if !strings.Contains(err.Error(), "truncated record") {
		t.Fatalf("error does not identify the truncation: %v", err)
	}
}

// TestJSONLReaderPositionsMidStreamCorruption checks that a malformed
// line in the middle of a stream (which cannot be a crash tail) is
// reported with its line number but not misdescribed as truncated.
func TestJSONLReaderPositionsMidStreamCorruption(t *testing.T) {
	input := `{"v":1,"test_id":1,"kind":1,"agents":3}` + "\n" +
		`{"v":1,"test_id":2,&&garbage` + "\n" +
		`{"v":1,"test_id":3,"kind":1,"agents":3}` + "\n"
	r := NewReader(strings.NewReader(input))
	if _, err := r.Read(); err != nil {
		t.Fatal(err)
	}
	_, err := r.Read()
	if err == nil {
		t.Fatal("corrupt middle line accepted")
	}
	if !strings.Contains(err.Error(), "trace line 2") {
		t.Fatalf("error does not name line 2: %v", err)
	}
	if strings.Contains(err.Error(), "truncated record") {
		t.Fatalf("complete-but-corrupt line misreported as truncated: %v", err)
	}
}

// TestJSONLReaderAcceptsCompleteFinalLineWithoutNewline checks that a
// valid final record merely missing its newline (a file trimmed by a
// text editor) still decodes.
func TestJSONLReaderAcceptsCompleteFinalLineWithoutNewline(t *testing.T) {
	input := `{"v":1,"test_id":1,"kind":1,"agents":3}`
	r := NewReader(strings.NewReader(input))
	tr, err := r.Read()
	if err != nil {
		t.Fatalf("complete unterminated line rejected: %v", err)
	}
	if tr.TestID != 1 {
		t.Fatalf("decoded test_id = %d", tr.TestID)
	}
	if _, err := r.Read(); err != io.EOF {
		t.Fatalf("expected EOF, got %v", err)
	}
}

// TestJSONLReaderSkipsBlankLines checks blank lines are tolerated while
// still counting toward reported positions.
func TestJSONLReaderSkipsBlankLines(t *testing.T) {
	input := `{"v":1,"test_id":1,"kind":1,"agents":3}` + "\n\n" + `{"v":1,"test_id":2,&&` + "\n"
	r := NewReader(strings.NewReader(input))
	if _, err := r.Read(); err != nil {
		t.Fatal(err)
	}
	_, err := r.Read()
	if err == nil || !strings.Contains(err.Error(), "trace line 3") {
		t.Fatalf("blank line not counted in position: %v", err)
	}
}

// TestJSONLReaderRejectsUnbackedAgentCount checks that a record cannot
// make its readers size and loop by a number it merely declares: a count
// above maxUnnamedAgents must be matched by agents the record names.
func TestJSONLReaderRejectsUnbackedAgentCount(t *testing.T) {
	for _, line := range []string{
		`{"v":2,"test_id":1,"kind":2,"agents":4000000000}`,
		`{"v":2,"test_id":1,"kind":2,"agents":4000000000,"reads":[{"agent":1},{"agent":4000000000}]}`,
		`{"v":2,"test_id":1,"kind":2,"agents":65,"deltas_ns":{"1":0,"2":0,"900":0}}`,
	} {
		_, err := NewReader(strings.NewReader(line + "\n")).Read()
		if err == nil {
			t.Errorf("accepted %s", line)
			continue
		}
		if !strings.Contains(err.Error(), "trace line 1") || !strings.Contains(err.Error(), "agents but names only") {
			t.Errorf("unhelpful error for %s: %v", line, err)
		}
	}

	// A large deployment that names every agent it declares still loads.
	var sb strings.Builder
	sb.WriteString(`{"v":2,"test_id":1,"kind":2,"agents":70,"deltas_ns":{`)
	for a := 1; a <= 70; a++ {
		if a > 1 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, `"%d":0`, a)
	}
	sb.WriteString("}}\n")
	tr, err := NewReader(strings.NewReader(sb.String())).Read()
	if err != nil {
		t.Fatalf("a record naming all 70 of its agents was rejected: %v", err)
	}
	if got := len(tr.AgentIDs()); got != 70 {
		t.Fatalf("AgentIDs lists %d agents, want 70", got)
	}
}
