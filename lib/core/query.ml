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

(* Fixed-capacity binary heap whose root is the worst kept answer: the
   lowest support, then the latest-ranked root, then the latest DFS
   arrival. A newcomer is admitted only if it beats the root, which it
   then evicts, so the heap keeps the first k patterns by support, ties
   broken by (rank, arrival). *)
module Heap = struct
  type entry = { rank : int; arrival : int; mined : Mined.t }
  type t = { arr : entry option array; mutable len : int }

  let create k = { arr = Array.make k None; len = 0 }
  let copy h = { arr = Array.copy h.arr; len = h.len }
  let full h = h.len = Array.length h.arr

  let get h i =
    match h.arr.(i) with Some e -> e | None -> invalid_arg "Query.Heap.get"

  (* [worse a b]: [a] leaves the answer before [b] *)
  let worse a b =
    let sa = a.mined.Mined.support and sb = b.mined.Mined.support in
    sa < sb
    || sa = sb
       && (a.rank > b.rank || (a.rank = b.rank && a.arrival > b.arrival))

  let swap h i j =
    let tmp = h.arr.(i) in
    h.arr.(i) <- h.arr.(j);
    h.arr.(j) <- tmp

  let rec sift_up h i =
    let parent = (i - 1) / 2 in
    if i > 0 && worse (get h i) (get h parent) then begin
      swap h i parent;
      sift_up h parent
    end

  let rec sift_down h i =
    let l = (2 * i) + 1 and r = (2 * i) + 2 in
    let worst = ref i in
    if l < h.len && worse (get h l) (get h !worst) then worst := l;
    if r < h.len && worse (get h r) (get h !worst) then worst := r;
    if !worst <> i then begin
      swap h i !worst;
      sift_down h !worst
    end

  let worst h = get h 0

  let offer h e =
    if not (full h) then begin
      h.arr.(h.len) <- Some e;
      h.len <- h.len + 1;
      sift_up h (h.len - 1)
    end
    else if worse (worst h) e then begin
      h.arr.(0) <- Some e;
      sift_down h 0
    end

  (* best first: support-descending, ties by (rank, arrival) *)
  let contents h =
    List.init h.len (get h)
    |> List.sort (fun a b -> if worse a b then 1 else if worse b a then -1 else 0)
end

(* each rank's answer, or for top-k the k best of every published root *)
type board =
  | Slots of Mined.t list array
  | Best of { lock : Mutex.t; heap : Heap.t }

let board ~roots = function
  | All | Targeted _ -> Slots (Array.make roots [])
  | Top_k k -> Best { lock = Mutex.create (); heap = Heap.create k }

(* Ranks write distinct slots, read only after the pool joins, so [Slots]
   needs no lock. A published list's index is a valid arrival: at equal
   support the list keeps the root's DFS order. *)
let publish board ~rank results =
  match board with
  | Slots slots -> slots.(rank) <- results
  | Best { lock; heap } ->
    Mutex.protect lock (fun () ->
        List.iteri
          (fun arrival mined -> Heap.offer heap { Heap.rank; arrival; mined })
          results)

let answer = function
  | Slots slots -> List.concat (Array.to_list slots)
  | Best { lock; heap } ->
    Mutex.protect lock (fun () ->
        List.map (fun e -> e.Heap.mined) (Heap.contents heap))

let top_k_collector ?board ~rank ~min_sup k =
  let heap =
    match board with
    | Some (Best { lock; heap }) -> Mutex.protect lock (fun () -> Heap.copy heap)
    | Some (Slots _) | None -> Heap.create k
  in
  let arrivals = ref 0 in
  (* Antimonotone support bounds appends (Theorem 1), and a later arrival
     loses every tie to its own root and earlier-ranked ones, so once the
     heap is full no descendant of a node with support <= min(heap) can
     displace anything: the floor rises to min(heap) + 1 and the engine
     prunes with it exactly like the static Apriori bound. A worst entry
     of a later-ranked root loses ties to this one: floor min(heap). *)
  let floor () =
    if Heap.full heap then begin
      let w = Heap.worst heap in
      let sup = w.Heap.mined.Mined.support in
      max min_sup (if w.Heap.rank <= rank then sup + 1 else sup)
    end
    else min_sup
  in
  let plan = { (trivial ~min_sup) with floor } in
  {
    plan;
    offer =
      (fun mined ->
        Heap.offer heap { Heap.rank; arrival = !arrivals; mined };
        incr arrivals);
    results =
      (fun () ->
        if Heap.full heap then
          Metrics.observe_max Metrics.query_topk_floor
            (Heap.worst heap).Heap.mined.Mined.support;
        List.filter_map
          (fun e -> if e.Heap.rank = rank then Some e.Heap.mined else None)
          (Heap.contents heap));
  }

let collector ?max_length ?board ?(rank = 0) ~events ~min_sup = function
  | All -> all_collector ~min_sup
  | Targeted q ->
    validate (Targeted q);
    targeted_collector ?max_length ~events ~min_sup q
  | Top_k k ->
    validate (Top_k k);
    top_k_collector ?board ~rank ~min_sup k
