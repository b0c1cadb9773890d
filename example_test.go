package lukewarm_test

import (
	"fmt"

	"lukewarm"
)

// The simulator is fully deterministic, so examples can assert exact
// outputs where the quantity is structural (metadata sizes, orderings)
// and qualitative relations where it is timing-derived.

// ExampleNewServer shows the minimal warm-vs-lukewarm comparison.
func ExampleNewServer() {
	srv := lukewarm.NewServer(lukewarm.ServerConfig{})
	fn, _ := lukewarm.FunctionByName("Auth-G")
	inst := srv.Deploy(fn)

	warm := srv.RunReference(inst, 3)
	luke := srv.RunLukewarm(inst, 3)
	fmt.Println("lukewarm slower:", luke.CPI() > warm.CPI()*1.25)
	// Output:
	// lukewarm slower: true
}

// ExampleServerConfig_jukebox deploys an instance with Jukebox and shows the
// per-instance metadata cost the paper headlines.
func ExampleServerConfig_jukebox() {
	jb := lukewarm.DefaultJukeboxConfig()
	srv := lukewarm.NewServer(lukewarm.ServerConfig{Jukebox: &jb})
	fn, _ := lukewarm.FunctionByName("ProdL-G")
	inst := srv.Deploy(fn)
	srv.RunLukewarm(inst, 2)

	fmt.Printf("metadata per instance: %d KB\n", inst.Jukebox.MetadataFootprintBytes()/1024)
	fmt.Printf("for 1000 instances:    %d MB\n", 1000*inst.Jukebox.MetadataFootprintBytes()>>20)
	// Output:
	// metadata per instance: 32 KB
	// for 1000 instances:    31 MB
}

// ExampleSuite lists the evaluation suite's composition.
func ExampleSuite() {
	langs := map[string]int{}
	for _, w := range lukewarm.Suite() {
		langs[w.Lang.String()]++
	}
	fmt.Println("functions:", len(lukewarm.Suite()))
	fmt.Println("Python:", langs["Python"], "NodeJS:", langs["NodeJS"], "Go:", langs["Go"])
	// Output:
	// functions: 20
	// Python: 5 NodeJS: 5 Go: 10
}

// ExampleCaptureTrace round-trips an invocation through the binary trace
// format.
func ExampleCaptureTrace() {
	fn, _ := lukewarm.FunctionByName("Fib-G")
	var buf deterministicBuffer
	n, err := lukewarm.CaptureTrace(fn, 0, &buf)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	r, _ := lukewarm.NewTraceReader(&buf)
	decoded := uint64(0)
	for {
		if _, ok := r.Next(); !ok {
			break
		}
		decoded++
	}
	fmt.Println("round-trip exact:", decoded == n)
	// Output:
	// round-trip exact: true
}

// deterministicBuffer is a minimal in-memory io.ReadWriter.
type deterministicBuffer struct {
	data []byte
	pos  int
}

func (b *deterministicBuffer) Write(p []byte) (int, error) {
	b.data = append(b.data, p...)
	return len(p), nil
}

func (b *deterministicBuffer) Read(p []byte) (int, error) {
	if b.pos >= len(b.data) {
		return 0, fmt.Errorf("EOF")
	}
	n := copy(p, b.data[b.pos:])
	b.pos += n
	return n, nil
}
