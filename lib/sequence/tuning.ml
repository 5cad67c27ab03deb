let default_gallop_probe = 4

let gallop_probe = ref default_gallop_probe

let gallop_probe_limit () = !gallop_probe

let set_gallop_probe n =
  if n < 0 then invalid_arg "Tuning.set_gallop_probe: n must be >= 0";
  gallop_probe := n
