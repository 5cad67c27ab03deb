open Rgs_sequence

type t =
  | All
  | Targeted of Pattern.t
  | Top_k of int

let validate = function
  | All -> ()
  | Targeted p ->
    if Pattern.is_empty p then
      invalid_arg "Query: target pattern must be non-empty"
  | Top_k k -> if k < 1 then invalid_arg "Query: top-k must be >= 1"

let equal a b =
  match (a, b) with
  | All, All -> true
  | Targeted p, Targeted q -> Pattern.equal p q
  | Top_k j, Top_k k -> j = k
  | (All | Targeted _ | Top_k _), _ -> false

(* Stable encoding: feeds checkpoint fingerprints, so any change here
   invalidates resumable runs started under the old encoding. *)
let to_string = function
  | All -> "all"
  | Targeted p ->
    "target:"
    ^ String.concat "." (List.map string_of_int (Pattern.to_list p))
  | Top_k k -> Printf.sprintf "topk:%d" k

let pp ppf q = Format.pp_print_string ppf (to_string q)

type plan = {
  root_state : Event.t -> int;
  child_state : int -> Event.t -> int;
  cut : state:int -> depth:int -> bool;
  floor : unit -> int;
  emit_ok : state:int -> bool;
}

let trivial ~min_sup =
  {
    root_state = (fun _ -> 0);
    child_state = (fun s _ -> s);
    cut = (fun ~state:_ ~depth:_ -> false);
    floor = (fun () -> min_sup);
    emit_ok = (fun ~state:_ -> true);
  }

type collector = {
  plan : plan;
  offer : Mined.t -> unit;
  results : unit -> Mined.t list;
}

let all_collector ~min_sup =
  let acc = ref [] in
  {
    plan = trivial ~min_sup;
    offer = (fun r -> acc := r :: !acc);
    results = (fun () -> List.rev !acc);
  }

(* The greedy left-to-right match of the target [q] into the grown pattern
   is exact for subsequence containment and advances by at most one per
   append, so the matched count is the whole per-node state. *)
let targeted_collector ?max_length ~events ~min_sup q =
  let m = Pattern.length q in
  let events_frequent =
    let rec ok j =
      j > m || (List.mem (Pattern.get q j) events && ok (j + 1))
    in
    ok 1
  in
  let acc = ref [] in
  let plan =
    {
      root_state =
        (fun e -> if m > 0 && Pattern.get q 1 = e then 1 else 0);
      child_state =
        (fun s e -> if s < m && Pattern.get q (s + 1) = e then s + 1 else s);
      cut =
        (fun ~state ~depth ->
          (not events_frequent)
          ||
          match max_length with
          | Some l -> depth + (m - state) > l
          | None -> false);
      floor = (fun () -> min_sup);
      emit_ok = (fun ~state -> state = m);
    }
  in
  {
    plan;
    offer = (fun r -> acc := r :: !acc);
    results = (fun () -> List.rev !acc);
  }

(* Fixed-capacity binary min-heap on support. Admission needs support
   strictly above the current minimum, so among boundary-support patterns
   the first k - (better ones) encountered in DFS order are kept — a
   deterministic answer for a deterministic DFS. *)
module Heap = struct
  type t = { arr : Mined.t option array; mutable len : int }

  let create k = { arr = Array.make k None; len = 0 }
  let full h = h.len = Array.length h.arr
  let sup h i = match h.arr.(i) with Some r -> r.Mined.support | None -> max_int

  let swap h i j =
    let tmp = h.arr.(i) in
    h.arr.(i) <- h.arr.(j);
    h.arr.(j) <- tmp

  let rec sift_up h i =
    let parent = (i - 1) / 2 in
    if i > 0 && sup h i < sup h parent then begin
      swap h i parent;
      sift_up h parent
    end

  let rec sift_down h i =
    let l = (2 * i) + 1 and r = (2 * i) + 2 in
    let smallest = ref i in
    if l < h.len && sup h l < sup h !smallest then smallest := l;
    if r < h.len && sup h r < sup h !smallest then smallest := r;
    if !smallest <> i then begin
      swap h i !smallest;
      sift_down h !smallest
    end

  let min_support h = sup h 0

  let offer h r =
    if not (full h) then begin
      h.arr.(h.len) <- Some r;
      h.len <- h.len + 1;
      sift_up h (h.len - 1)
    end
    else if r.Mined.support > min_support h then begin
      h.arr.(0) <- Some r;
      sift_down h 0
    end

  let contents h =
    Array.to_list (Array.sub h.arr 0 h.len) |> List.filter_map Fun.id
end

let top_k_collector ~min_sup k =
  let heap = Heap.create k in
  (* Antimonotone support bounds appends (Theorem 1), so once the heap is
     full no descendant of a node with support <= min(heap) can displace
     anything: the floor rises to min(heap) + 1 and the engine prunes with
     it exactly like the static Apriori bound. *)
  let floor () =
    if Heap.full heap then max min_sup (Heap.min_support heap + 1)
    else min_sup
  in
  let plan = { (trivial ~min_sup) with floor } in
  {
    plan;
    offer = (fun r -> Heap.offer heap r);
    results =
      (fun () ->
        if Heap.full heap then
          Metrics.observe_max Metrics.query_topk_floor (Heap.min_support heap);
        List.sort Mined.compare_by_support_desc (Heap.contents heap));
  }

let collector ?max_length ~events ~min_sup = function
  | All -> all_collector ~min_sup
  | Targeted q ->
    validate (Targeted q);
    targeted_collector ?max_length ~events ~min_sup q
  | Top_k k ->
    validate (Top_k k);
    top_k_collector ~min_sup k
