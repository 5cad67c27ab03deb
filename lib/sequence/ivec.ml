type t = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

let create n : t = Bigarray.Array1.create Bigarray.int Bigarray.c_layout n
let empty : t = create 0
let length (v : t) = Bigarray.Array1.dim v
let get (v : t) i = Bigarray.Array1.get v i
let unsafe_get (v : t) i = Bigarray.Array1.unsafe_get v i
let set (v : t) i x = Bigarray.Array1.set v i x
let sub (v : t) ~pos ~len : t = Bigarray.Array1.sub v pos len

let sub_array (v : t) ~pos ~len =
  if len = 0 then [||]
  else Array.init len (fun i -> Bigarray.Array1.unsafe_get v (pos + i))

let to_array v = sub_array v ~pos:0 ~len:(length v)

let equal a b =
  length a = length b
  &&
  let n = length a in
  let rec go i = i >= n || (unsafe_get a i = unsafe_get b i && go (i + 1)) in
  go 0
