//go:build altimport

package main

// An import nothing in lpbench uses: it changes only the binary's
// layout. Building with -tags altimport gives the second binary of the
// build-to-build check (see README.md and b2b.py).
import _ "net/http/pprof"
