module tflux/bench

go 1.22

require tflux v0.0.0

replace tflux => ../
