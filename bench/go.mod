module conprobe/bench

go 1.22

require conprobe v0.0.0

replace conprobe => ../
