module github.com/congestedclique/ccsp/benchmark

go 1.22

require github.com/congestedclique/ccsp v0.0.0

replace github.com/congestedclique/ccsp => ../
