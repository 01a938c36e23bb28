// The benchmark is a module of its own because the contract it is built
// to asks for one: a benchmark that has to be compiled is a package of its
// own in the benchmark's directory, with its own build file. The price is
// that the root module's `go build ./...` and `go test ./...` do not see
// it: build and test it from this directory (`go vet . && go test .`).
// The module path keeps the atf/ prefix so that it may import
// atf/internal/..., as a plain subdirectory of the root module could.
module atf/benchmark

go 1.22

require atf v0.0.0

replace atf => ../
