package workload

import (
	"slices"
	"strings"
	"testing"
	"time"

	"eant/internal/sim"
)

func TestTraceRoundTrip(t *testing.T) {
	orig, err := GenerateMSD(MSDConfig{Jobs: 30, Scale: 64, MeanInterarrival: 20 * time.Second}, sim.NewRNG(5))
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := WriteTrace(&sb, orig); err != nil {
		t.Fatalf("WriteTrace: %v", err)
	}
	back, err := ReadTrace(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatalf("ReadTrace: %v", err)
	}
	if len(back) != len(orig) {
		t.Fatalf("round-tripped %d jobs, want %d", len(back), len(orig))
	}
	for i := range orig {
		if back[i] != orig[i] {
			t.Fatalf("job %d mutated: %+v vs %+v", i, back[i], orig[i])
		}
	}
}

func TestTraceRoundTripUnclassified(t *testing.T) {
	orig := []JobSpec{NewJobSpec(3, Terasort, 777, 2, 90*time.Second)}
	var sb strings.Builder
	if err := WriteTrace(&sb, orig); err != nil {
		t.Fatal(err)
	}
	back, err := ReadTrace(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if back[0] != orig[0] {
		t.Fatalf("unclassified job mutated: %+v vs %+v", back[0], orig[0])
	}
}

func TestReadTraceRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"empty":        "",
		"bad header":   "id,app,class,input_mb,reduces,submit_ns\n",
		"bad id":       "id,app,class,input_mb,num_reduces,submit_ns\nx,Grep,S,64,1,0\n",
		"bad app":      "id,app,class,input_mb,num_reduces,submit_ns\n1,Sort,S,64,1,0\n",
		"bad class":    "id,app,class,input_mb,num_reduces,submit_ns\n1,Grep,Q,64,1,0\n",
		"bad input":    "id,app,class,input_mb,num_reduces,submit_ns\n1,Grep,S,abc,1,0\n",
		"bad reduces":  "id,app,class,input_mb,num_reduces,submit_ns\n1,Grep,S,64,x,0\n",
		"bad submit":   "id,app,class,input_mb,num_reduces,submit_ns\n1,Grep,S,64,1,x\n",
		"neg input":    "id,app,class,input_mb,num_reduces,submit_ns\n1,Grep,S,-5,1,0\n",
		"nan input":    "id,app,class,input_mb,num_reduces,submit_ns\n1,Grep,S,NaN,1,0\n",
		"inf input":    "id,app,class,input_mb,num_reduces,submit_ns\n1,Grep,S,+Inf,1,0\n",
		"huge input":   "id,app,class,input_mb,num_reduces,submit_ns\n1,Grep,S,1e300,1,0\n",
		"wrong fields": "id,app,class,input_mb,num_reduces,submit_ns\n1,Grep,S,64\n",
	}
	for name, in := range cases {
		if _, err := ReadTrace(strings.NewReader(in)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestTraceHeaderStable(t *testing.T) {
	var sb strings.Builder
	if err := WriteTrace(&sb, nil); err != nil {
		t.Fatal(err)
	}
	if got := strings.TrimSpace(sb.String()); got != "id,app,class,input_mb,num_reduces,submit_ns" {
		t.Errorf("header = %q", got)
	}
}

// FuzzReadTrace: ReadTrace never panics, and every trace it accepts
// survives a WriteTrace→ReadTrace round trip unchanged.
func FuzzReadTrace(f *testing.F) {
	jobs, err := GenerateMSD(MSDConfig{Jobs: 6, Scale: 64, MeanInterarrival: 20 * time.Second}, sim.NewRNG(1))
	if err != nil {
		f.Fatal(err)
	}
	var sb strings.Builder
	if err := WriteTrace(&sb, jobs); err != nil {
		f.Fatal(err)
	}
	f.Add(sb.String())
	f.Add("id,app,class,input_mb,num_reduces,submit_ns\n")
	f.Add("id,app,class,input_mb,num_reduces,submit_ns\n3,Terasort,-,777.5,0,90000000000\n")
	f.Add("id,app,class,input_mb,num_reduces,submit_ns\n1,Grep,S,NaN,1,0\n")
	f.Add("id,app,class,input_mb,num_reduces,submit_ns\n1,Grep,S,+Inf,1,0\n")
	f.Fuzz(func(t *testing.T, in string) {
		jobs, err := ReadTrace(strings.NewReader(in))
		if err != nil {
			return
		}
		var sb strings.Builder
		if err := WriteTrace(&sb, jobs); err != nil {
			t.Fatalf("WriteTrace of an accepted trace: %v", err)
		}
		back, err := ReadTrace(strings.NewReader(sb.String()))
		if err != nil {
			t.Fatalf("re-reading the written trace: %v\n%s", err, sb.String())
		}
		if !slices.Equal(back, jobs) {
			t.Fatalf("round trip changed the trace:\n got %+v\nwant %+v", back, jobs)
		}
	})
}
