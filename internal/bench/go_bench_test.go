package bench

import "testing"

// Go-testing mirrors of the suite rows, so the hot paths can be profiled
// with the stock tooling (-benchmem, -cpuprofile, -memprofile) without
// going through the mproxy CLI harness.

func BenchmarkEngineEvents(b *testing.B) {
	if _, err := benchEngineEvents(int64(b.N)); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkEngineTraced(b *testing.B) {
	if _, err := benchEngineTraced(int64(b.N)); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkPingPong(b *testing.B) {
	if _, err := benchPingPong(int64(b.N)); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkEngineTimer(b *testing.B) {
	if _, err := benchEngineTimer(int64(b.N)); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkEngineDeep(b *testing.B) {
	if _, err := benchEngineDeep(max(int64(b.N), deepClients)); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkBuild1k(b *testing.B) {
	if _, err := benchBuild(int64(b.N)); err != nil {
		b.Fatal(err)
	}
}
