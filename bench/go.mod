// The benchmark is a module of its own so that it builds from this directory
// alone plus the repository it measures; see README.md.
module partmb/bench

go 1.22

require partmb v0.0.0

replace partmb => ../
