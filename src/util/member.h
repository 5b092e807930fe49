// The struct and member type behind a pointer to data member, for tables
// that take the member pointer as a template argument (the wire codec's
// field rows, the scenario key tables).
#pragma once

namespace flexran::util {

template <typename>
struct MemberOf;
template <typename S, typename T>
struct MemberOf<T S::*> {
  using Struct = S;
  using Type = T;
};
template <auto P>
using StructOf = typename MemberOf<decltype(P)>::Struct;
template <auto P>
using TypeOf = typename MemberOf<decltype(P)>::Type;

}  // namespace flexran::util
