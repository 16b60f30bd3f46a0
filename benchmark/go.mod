module postlob/benchmark

go 1.22

require postlob v0.0.0

replace postlob => ../
