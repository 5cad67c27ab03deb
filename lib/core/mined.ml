type t = {
  pattern : Pattern.t;
  support : int;
}

let compare_by_support_desc a b =
  match Int.compare b.support a.support with
  | 0 -> (
    match Int.compare (Pattern.length a.pattern) (Pattern.length b.pattern) with
    | 0 -> Pattern.compare a.pattern b.pattern
    | c -> c)
  | c -> c

let compare_by_length_desc a b =
  match Int.compare (Pattern.length b.pattern) (Pattern.length a.pattern) with
  | 0 -> (
    match Int.compare b.support a.support with
    | 0 -> Pattern.compare a.pattern b.pattern
    | c -> c)
  | c -> c

let pp ppf r = Format.fprintf ppf "%a (sup=%d)" Pattern.pp r.pattern r.support

let pp_with codec ppf r =
  Format.fprintf ppf "%a (sup=%d)" (Pattern.pp_with codec) r.pattern r.support
